package cluster

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/viewpolicy"
)

// testBrokerCluster starts nServers cache servers and nBrokers brokers,
// each with its own WAL, broker i anchored in zone i and server j in zone
// j (each zone's server in a rack of its own). Listeners are reserved
// up front so every broker knows the full peer list before any peer runs.
func testBrokerCluster(t *testing.T, nBrokers, nServers int, tweak func(i int, cfg *BrokerConfig)) ([]*Broker, []*Server) {
	t.Helper()
	var servers []*Server
	var addrs []string
	for i := 0; i < nServers; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	lns := make([]net.Listener, nBrokers)
	peers := make([]PeerInfo, nBrokers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = PeerInfo{Addr: ln.Addr().String(), Pos: Position{Zone: i, Rack: 0}}
	}
	serverPos := make([]Position, nServers)
	for i := range serverPos {
		serverPos[i] = Position{Zone: i, Rack: 1}
	}
	brokers := make([]*Broker, nBrokers)
	for i := range brokers {
		cfg := BrokerConfig{
			Listener:    lns[i],
			ServerAddrs: addrs,
			Peers:       peers,
			Self:        i,
			DataDir:     t.TempDir(),
			SyncEvery:   50 * time.Millisecond,
			PolicyEvery: time.Hour, // placement changes only via the read path
			Placement:   &Placement{Broker: peers[i].Pos, Servers: serverPos},
			Policy:      viewpolicy.Config{AdmissionEpsilon: 100},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		b, err := NewBroker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		brokers[i] = b
	}
	return brokers, servers
}

// sameReplicaSet reports whether every broker observes the same replica
// set for user, and returns that set.
func sameReplicaSet(brokers []*Broker, user uint32) ([]int, bool) {
	var ref []int
	for i, b := range brokers {
		set := b.ReplicaSet(user)
		if i == 0 {
			ref = set
			continue
		}
		if len(set) != len(ref) {
			return nil, false
		}
		for j := range set {
			if set[j] != ref[j] {
				return nil, false
			}
		}
	}
	return ref, len(ref) > 0
}

// TestMultiBrokerClusterConvergesAndSurvivesBrokerDeath is the acceptance
// scenario: a 3-broker, 4-server cluster serves concurrent reads and
// writes through all brokers, placement decisions made by the leader
// converge (every broker observes the same replica sets after a sync
// round), and the cluster keeps serving after one broker is killed.
func TestMultiBrokerClusterConvergesAndSurvivesBrokerDeath(t *testing.T) {
	brokers, _ := testBrokerCluster(t, 3, 4, nil)
	const users = 12

	// Concurrent writes and reads through every broker.
	var wg sync.WaitGroup
	errs := make(chan error, 3*users)
	for bi, b := range brokers {
		wg.Add(1)
		go func(bi int, b *Broker) {
			defer wg.Done()
			for u := uint32(0); u < users; u++ {
				if _, err := b.Write(u, []byte(fmt.Sprintf("b%d-u%d", bi, u))); err != nil {
					errs <- err
					return
				}
				if _, err := b.Read([]uint32{u}); err != nil {
					errs <- err
					return
				}
			}
		}(bi, b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every broker served; every write is visible through every broker.
	for bi, b := range brokers {
		st := b.Stats()
		if st.Reads == 0 || st.Writes == 0 {
			t.Errorf("broker %d served reads=%d writes=%d, want both > 0", bi, st.Reads, st.Writes)
		}
		views, err := b.Read([]uint32{3})
		if err != nil {
			t.Fatal(err)
		}
		if len(views[0].Events) != 3 {
			t.Errorf("broker %d sees %d events for user 3, want 3 (one per broker)", bi, len(views[0].Events))
		}
	}

	// Hammer one user through the follower in zone 2: its report makes the
	// leader replicate next to that front-end cluster, and the delta +
	// anti-entropy sync must converge all three placement tables on a
	// multi-replica set. The user homes on server 0 (zone 0), so zone-2
	// reads pull a copy into zone 2.
	hot := userHomedOn(t, brokers[0], 0)
	deadline := time.Now().Add(5 * time.Second)
	var set []int
	for time.Now().Before(deadline) {
		if _, err := brokers[2].ReadOne(hot); err != nil {
			t.Fatal(err)
		}
		if s, ok := sameReplicaSet(brokers, hot); ok && len(s) >= 2 {
			set = s
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(set) < 2 {
		a, b, c := brokers[0].ReplicaSet(hot), brokers[1].ReplicaSet(hot), brokers[2].ReplicaSet(hot)
		t.Fatalf("replica sets did not converge on >= 2 replicas: %v / %v / %v", a, b, c)
	}
	if st := brokers[0].Stats(); st.Replicated == 0 {
		t.Error("leader recorded no replication despite follower traffic")
	}

	// Kill the zone-1 follower; the survivors keep serving reads and
	// writes for every user.
	if err := brokers[1].Close(); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Broker{brokers[0], brokers[2]} {
		for u := uint32(0); u < users; u++ {
			if _, err := b.Write(u, []byte("post-death")); err != nil {
				t.Fatalf("write after broker death: %v", err)
			}
			views, err := b.Read([]uint32{u})
			if err != nil {
				t.Fatalf("read after broker death: %v", err)
			}
			last := views[0].Events[len(views[0].Events)-1]
			if string(last) != "post-death" {
				t.Fatalf("stale read after broker death: %q", last)
			}
		}
	}
}

// TestLeaderFailoverElectsNextAndKeepsMigrating kills the leader broker
// mid-workload and verifies the surviving broker with the smallest
// position is elected, reads and writes keep succeeding, and the new
// leader's placement policy keeps working: Stats.Migrated keeps advancing
// as views chase their readers.
func TestLeaderFailoverElectsNextAndKeepsMigrating(t *testing.T) {
	brokers, _ := testBrokerCluster(t, 3, 4, func(i int, cfg *BrokerConfig) {
		// Sole-copy views that migrate toward their dominant front-end
		// cluster: Algorithm 2 is capped out, Algorithm 3 takes over.
		cfg.MaxReplicas = 1
		cfg.Policy.DecisionSeconds = 1
	})
	for bi, b := range brokers {
		if got := b.Leader(); got != 0 {
			t.Fatalf("broker %d initially follows %d, want leader 0 (smallest position)", bi, got)
		}
	}

	// Four users homed away from zone 1 (server 1): after failover, reads
	// through the zone-1 broker migrate their sole copies toward it. User
	// 3 is excluded — the failover loop below hammers it through BOTH
	// survivors, which would pull its access window toward zone 2 and
	// stall its migration.
	var remote []uint32
	for u := uint32(0); len(remote) < 4; u++ {
		if u != 3 && brokers[0].HomeOf(u) != 1 {
			remote = append(remote, u)
		}
	}
	for _, u := range remote {
		if _, err := brokers[0].Write(u, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the leader mid-workload.
	if err := brokers[0].Close(); err != nil {
		t.Fatal(err)
	}
	survivors := []*Broker{brokers[1], brokers[2]}

	// Reads and writes must keep succeeding throughout re-election.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, b := range survivors {
			if _, err := b.Write(3, []byte("during-failover")); err != nil {
				t.Fatalf("write during failover: %v", err)
			}
			if _, err := b.Read([]uint32{3}); err != nil {
				t.Fatalf("read during failover: %v", err)
			}
		}
		if survivors[0].Leader() == 1 && survivors[1].Leader() == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if survivors[0].Leader() != 1 || survivors[1].Leader() != 1 {
		t.Fatalf("leaders after death of 0: %d / %d, want 1 (next smallest position)",
			survivors[0].Leader(), survivors[1].Leader())
	}
	if !survivors[0].IsLeader() {
		t.Error("broker 1 does not consider itself leader")
	}

	// The new leader keeps making placement decisions: zone-1 reads of
	// views homed elsewhere migrate them to the zone-1 server, advancing
	// Migrated — repeatedly, as later users get the same treatment.
	migratedAt := func() int64 { return survivors[0].Stats().Migrated }
	waves := [][]uint32{remote[:2], remote[2:]}
	for wi, wave := range waves {
		before := migratedAt()
		deadline := time.Now().Add(8 * time.Second)
		for time.Now().Before(deadline) && migratedAt() < before+int64(len(wave)) {
			for _, u := range wave {
				if _, err := survivors[0].ReadOne(u); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(30 * time.Millisecond)
		}
		if got := migratedAt(); got < before+int64(len(wave)) {
			t.Fatalf("wave %d: Migrated = %d, want >= %d (policy stalled after failover)", wi, got, before+int64(len(wave)))
		}
	}
	// Migration decisions reached the other survivor too.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if set, ok := sameReplicaSet(survivors, remote[0]); ok && len(set) == 1 && set[0] == 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("migrated placement did not converge: %v / %v",
		survivors[0].ReplicaSet(remote[0]), survivors[1].ReplicaSet(remote[0]))
}

// TestWriteReplicationAcrossBrokerWALs runs two brokers with separate
// per-broker WALs and verifies a write served by one becomes durable state
// at the other: after a total cache wipe, the second broker rebuilds the
// view from its own replicated log.
func TestWriteReplicationAcrossBrokerWALs(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	lns := make([]net.Listener, 2)
	peers := make([]PeerInfo, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = PeerInfo{Addr: ln.Addr().String(), Pos: Position{Zone: i, Rack: 0}}
	}
	brokers := make([]*Broker, 2)
	for i := range brokers {
		b, err := NewBroker(BrokerConfig{
			Listener:    lns[i],
			ServerAddrs: []string{s.Addr()},
			DataDir:     t.TempDir(), // per-broker WAL
			Peers:       peers,
			Self:        i,
			SyncEvery:   50 * time.Millisecond,
			PolicyEvery: time.Hour,
			Placement:   &Placement{Broker: peers[i].Pos, Servers: []Position{{Zone: 0, Rack: 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		brokers[i] = b
	}
	seq, err := brokers[0].Write(7, []byte("durable-everywhere"))
	if err != nil {
		t.Fatal(err)
	}
	// The replicated event lands in broker 1's own WAL (asynchronously).
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !storeHolds(brokers[1].store, 7, seq) {
		time.Sleep(10 * time.Millisecond)
	}
	if !storeHolds(brokers[1].store, 7, seq) {
		t.Fatalf("broker 1 store lacks record %d (write not replicated)", seq)
	}
	if got := brokers[1].store.Version(7); got < seq {
		t.Fatalf("broker 1 store version = %d, want >= %d", got, seq)
	}
	// Total cache loss: broker 1 must rebuild the view from its own log.
	s.drop(7)
	v, err := brokers[1].ReadOne(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Events) != 1 || string(v.Events[0]) != "durable-everywhere" {
		t.Fatalf("broker 1 rebuilt view = %q, want the replicated write", v.Events)
	}
}

// TestPlacementBatchOfOneChangesReplicaSet: a one-entry opPlacementBatch —
// the push a single policy decision sends — installs that user's replica
// set on the receiving broker.
func TestPlacementBatchOfOneChangesReplicaSet(t *testing.T) {
	b, _, _ := testCluster(t, 3, nil)
	const user = 7
	body := encodePlacementTable([]placementEntry{{user: user, order: []int{2, 0}}})
	if rt, resp := b.handle(telemetry.TraceContext{}, opPlacementBatch, body); rt != respOK {
		t.Fatalf("respType = %d (%q), want respOK", rt, resp)
	}
	if got := b.ReplicaSet(user); !slices.Equal(got, []int{2, 0}) {
		t.Errorf("replica set = %v, want [2 0]", got)
	}
}

// TestMembershipSyncWriteInstallsEpochOnFollower: a membership transition
// reaches a follower as the leader's WAL record, and applying that record
// is what installs the new epoch — no separate membership push exists.
func TestMembershipSyncWriteInstallsEpochOnFollower(t *testing.T) {
	b, servers, _ := testCluster(t, 2, func(cfg *BrokerConfig) {
		// Broker 0 (the leader by position) is never contacted: the sync
		// loop does not fire within the test.
		cfg.Peers = []PeerInfo{{Addr: "127.0.0.1:1", Pos: Position{Zone: 0}}, {Pos: Position{Zone: 1}}}
		cfg.Self = 1
		cfg.SyncEvery = time.Hour
	})
	if b.IsLeader() {
		t.Fatal("broker 1 should follow broker 0")
	}
	next, err := b.Membership().View.WithDraining(servers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Broker 0 mints sequence numbers ≡ 0 mod 2.
	body := encodeSyncWrite(membership.ReservedUser, 0, time.Now().UnixNano(), membership.AppendView(nil, next))
	if rt, resp := b.handle(telemetry.TraceContext{}, opSyncWrite, body); rt != respOK {
		t.Fatalf("respType = %d (%q), want respOK", rt, resp)
	}
	if got := b.Membership().View; got.Epoch != next.Epoch || got.Servers[1].State != membership.StateDraining {
		t.Errorf("follower holds epoch %d (server 1 %v), want epoch %d with server 1 draining",
			got.Epoch, got.Servers[1].State, next.Epoch)
	}
}

// TestRetiredPeerOpsAreRefused: the op codes protocol 5 retired (the peer
// hello ping, the one-user placement delta, the membership delta and the
// membership pull) are answered with respError, and the codes around them
// kept their values.
func TestRetiredPeerOpsAreRefused(t *testing.T) {
	if opPlacementPull != 19 || respMembership != 33 || opPlacementBatch != 34 {
		t.Fatalf("live op codes moved: %d %d %d", opPlacementPull, respMembership, opPlacementBatch)
	}
	b, _, _ := testCluster(t, 1, nil)
	for _, op := range []uint8{17, 18, 31, 32} {
		if rt, _ := b.handle(telemetry.TraceContext{}, op, make([]byte, 8)); rt != respError {
			t.Errorf("retired op %d: respType = %d, want respError", op, rt)
		}
	}
}

// TestRetiredServerStatsOpIsRefused: protocol 6 retired the cache
// server's stats op (code 4); a server answers it with respError, and the
// codes around it kept their values.
func TestRetiredServerStatsOpIsRefused(t *testing.T) {
	if opDeleteView != 3 || opRead != 5 {
		t.Fatalf("live op codes moved: %d %d", opDeleteView, opRead)
	}
	_, servers, _ := testCluster(t, 1, nil)
	if rt, _ := servers[0].handle(telemetry.TraceContext{}, 4, nil); rt != respError {
		t.Errorf("retired op 4: respType = %d, want respError", rt)
	}
}

// TestHungPeerIsMarkedDead pins the deadline every peer link keeps: a peer
// that accepts connections and never answers costs each probe at most the
// peer timeout, two failed probes mark it dead, and the next sync round
// elects this broker in its place.
func TestHungPeerIsMarkedDead(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		hung.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	self, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []PeerInfo{
		{Addr: hung.Addr().String(), Pos: Position{Zone: 0}},
		{Addr: self.Addr().String(), Pos: Position{Zone: 1}},
	}
	b, err := NewBroker(BrokerConfig{
		Listener:    self,
		ServerAddrs: []string{srv.Addr()},
		Peers:       peers,
		Self:        1,
		DataDir:     t.TempDir(),
		SyncEvery:   250 * time.Millisecond,
		PolicyEvery: time.Hour,
		Placement:   &Placement{Broker: peers[1].Pos, Servers: []Position{{Zone: 1, Rack: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if b.IsLeader() {
		t.Fatal("broker leads before the smaller-positioned peer was ever probed")
	}
	p := b.peers[0]
	timeout := peerTimeout(b.cfg.SyncEvery)
	for round := 0; round < peerDeathThreshold; round++ {
		start := time.Now()
		b.probe(p)
		if took := time.Since(start); took > timeout+500*time.Millisecond {
			t.Fatalf("probe %d of the hung peer took %v, want within the peer timeout %v", round, took, timeout)
		}
	}
	if p.alive.Load() {
		t.Fatal("hung peer still alive after two failed probes")
	}
	b.SyncNow()
	if !b.IsLeader() {
		t.Fatalf("broker did not elect itself once the hung peer died; leader = %d", b.Leader())
	}
}
