package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// listenOn binds addr, retrying briefly: a just-closed broker's port can
// take a moment to become bindable again.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// standIn holds a stopped broker's address until the test restarts it:
// every connection gets the hello, then respError for each request, and
// the sync writes among them are counted, so a test can wait until a
// batch sent during an outage has failed for good instead of reaching the
// restarted broker late.
func standIn(t *testing.T, addr string) *refusals {
	t.Helper()
	r := &refusals{ln: listenOn(t, addr), conns: map[net.Conn]bool{}}
	go func() {
		for {
			conn, err := r.ln.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				conn.Close()
				return
			}
			r.conns[conn] = true
			r.mu.Unlock()
			go serveFrames(conn, func(_ telemetry.TraceContext, msgType uint8, body []byte) (uint8, []byte) {
				if msgType == opSyncWrite {
					r.mu.Lock()
					r.syncWrites++
					r.mu.Unlock()
				}
				return respError, errorBody("broker down")
			})
		}
	}()
	t.Cleanup(r.close)
	return r
}

type refusals struct {
	ln         net.Listener
	mu         sync.Mutex
	conns      map[net.Conn]bool
	closed     bool
	syncWrites int
}

// await waits until n sync writes were refused, then releases the address
// and drops every connection, so the senders redial the restarted broker.
func (r *refusals) await(t *testing.T, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("%d sync writes refused", n), func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.syncWrites >= n
	})
	r.close()
}

func (r *refusals) close() {
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for conn := range r.conns {
		conn.Close()
	}
}

// sameStoreViews reports whether two stores hold identical views and
// versions for every user in [0, users).
func sameStoreViews(a, b *wal.ViewStore, users int) (string, bool) {
	for u := uint32(0); u < uint32(users); u++ {
		av, aver := a.View(u)
		bv, bver := b.View(u)
		if aver != bver {
			return fmt.Sprintf("user %d: versions %d vs %d", u, aver, bver), false
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("user %d: %d vs %d events", u, len(av), len(bv)), false
		}
		for i := range av {
			if av[i].Seq != bv[i].Seq || string(av[i].Payload) != string(bv[i].Payload) {
				return fmt.Sprintf("user %d event %d: %d/%q vs %d/%q",
					u, i, av[i].Seq, av[i].Payload, bv[i].Seq, bv[i].Payload), false
			}
		}
	}
	return "", true
}

// storeHolds reports whether vs holds the record with sequence number seq
// in user's view. Waits use it rather than the view's version: a store's
// first sequence number is 0, so for that record a version check cannot
// tell it from no record at all.
func storeHolds(vs *wal.ViewStore, user uint32, seq uint64) bool {
	recs, _ := vs.View(user)
	for _, r := range recs {
		if r.Seq == seq {
			return true
		}
	}
	return false
}

// TestBrokerRestartFromCheckpoint verifies the broker-level recovery path:
// a broker with checkpointing enabled writes a parting snapshot on Close,
// and its successor on the same data directory starts from it without
// replaying the WAL, serving identical views.
func TestBrokerRestartFromCheckpoint(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	dataDir := t.TempDir()
	cfg := BrokerConfig{
		Addr:            "127.0.0.1:0",
		ServerAddrs:     []string{s.Addr()},
		DataDir:         dataDir,
		Placement:       rackLocal(-1, 1),
		CheckpointEvery: time.Hour, // periodic pass idle; the parting checkpoint does the work
		CompactAfter:    1,
	}
	b, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if from, replayed := b.Recovery(); from || replayed != 0 {
		t.Fatalf("fresh broker recovery = (%v, %d), want empty", from, replayed)
	}
	const users, writes = 7, 350
	for i := 0; i < writes; i++ {
		if _, err := b.Write(uint32(i%users), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wantViews [users]string
	for u := 0; u < users; u++ {
		view, ver := b.store.View(uint32(u))
		wantViews[u] = fmt.Sprintf("%d:%d:%s", ver, len(view), view[len(view)-1].Payload)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	from, replayed := b2.Recovery()
	if !from {
		t.Fatal("restarted broker ignored the parting checkpoint")
	}
	if replayed != 0 {
		t.Fatalf("restarted broker replayed %d records, want 0 (checkpoint covers the whole log)", replayed)
	}
	for u := 0; u < users; u++ {
		view, ver := b2.store.View(uint32(u))
		got := fmt.Sprintf("%d:%d:%s", ver, len(view), view[len(view)-1].Payload)
		if got != wantViews[u] {
			t.Fatalf("user %d after restart: %s, want %s", u, got, wantViews[u])
		}
	}
	// The restarted broker keeps serving: reads hit the store-backed cache
	// tier, writes mint fresh sequence numbers past everything recovered.
	if v, err := b2.ReadOne(3); err != nil || len(v.Events) == 0 {
		t.Fatalf("read after restart: %v (%d events)", err, len(v.Events))
	}
	seq, err := b2.Write(3, []byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if seq < writes {
		t.Fatalf("post-restart write minted seq %d, below the %d already used", seq, writes)
	}
}

// TestPeerCatchUpAfterRestart is the catch-up acceptance scenario: in a
// 3-broker cluster with per-broker WALs, one broker goes down, misses a
// batch of writes served by the others, and rejoins. With **no further
// user writes**, the opLogCursors/opLogPull exchange alone must deliver
// exactly the records it missed per origin, converging its store — the
// ROADMAP anti-entropy item.
func TestPeerCatchUpAfterRestart(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const nBrokers = 3
	lns := make([]net.Listener, nBrokers)
	peers := make([]PeerInfo, nBrokers)
	dataDirs := make([]string, nBrokers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = PeerInfo{Addr: ln.Addr().String(), Pos: Position{Zone: i, Rack: 0}}
		dataDirs[i] = t.TempDir()
	}
	mkBroker := func(i int, ln net.Listener) *Broker {
		b, err := NewBroker(BrokerConfig{
			Listener:        ln,
			ServerAddrs:     []string{s.Addr()},
			DataDir:         dataDirs[i],
			Peers:           peers,
			Self:            i,
			SyncEvery:       50 * time.Millisecond,
			PolicyEvery:     time.Hour,
			Placement:       &Placement{Broker: peers[i].Pos, Servers: []Position{{Zone: 0, Rack: 1}}},
			CheckpointEvery: time.Hour, // parting checkpoint on Close; restart loads it
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	brokers := make([]*Broker, nBrokers)
	for i := range brokers {
		brokers[i] = mkBroker(i, lns[i])
		t.Cleanup(func(b *Broker) func() { return func() { b.Close() } }(brokers[i]))
	}

	// Phase 1: every broker serves writes; replication converges all WALs.
	const users = 4
	for bi, b := range brokers {
		for u := uint32(0); u < users; u++ {
			if _, err := b.Write(u, []byte(fmt.Sprintf("pre-b%d-u%d", bi, u))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverged := func(a, b *Broker, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, ok := sameStoreViews(a.store, b.store, users); ok {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		diff, _ := sameStoreViews(a.store, b.store, users)
		t.Fatalf("%s: stores did not converge: %s", what, diff)
	}
	// Broker 2 must hold all of phase 1 before it goes down, so that what
	// it misses is exactly phase 2's batch: each survivor holds all of its
	// own events, so converging with both means holding every origin's.
	waitConverged(brokers[0], brokers[2], "pre-outage")
	waitConverged(brokers[1], brokers[2], "pre-outage")

	// Phase 2: broker 2 goes down and misses a batch of writes.
	if err := brokers[2].Close(); err != nil {
		t.Fatal(err)
	}
	refused := standIn(t, peers[2].Addr)
	const missedPerBroker = 3
	missed := 0
	for _, bi := range []int{0, 1} {
		for u := uint32(0); u < missedPerBroker; u++ {
			if _, err := brokers[bi].Write(u, []byte(fmt.Sprintf("missed-b%d-u%d", bi, u))); err != nil {
				t.Fatal(err)
			}
			missed++
		}
	}
	// Broker 2 must really miss the batch: every sync write sent to it has
	// to be refused before it is back, or a late one reaches it live.
	refused.await(t, missed)

	// Phase 3: broker 2 rejoins on its old address and data directory.
	// No user writes anything anymore — catch-up must do all the work.
	brokers[2] = mkBroker(2, listenOn(t, peers[2].Addr))
	t.Cleanup(func() { brokers[2].Close() })
	if from, _ := brokers[2].Recovery(); !from {
		t.Error("rejoined broker did not recover from its parting checkpoint")
	}
	waitConverged(brokers[0], brokers[2], "catch-up")

	// Exactly the missed records arrived, attributed per origin: the
	// rejoined broker's cursors match a surviving broker's for every
	// origin, and its catch-up counter equals the missed batch.
	if got := brokers[2].Stats().CatchupRecords; got != int64(missed) {
		t.Errorf("CatchupRecords = %d, want exactly the %d missed records", got, missed)
	}
	want := brokers[0].store.Cursors()
	got := brokers[2].store.Cursors()
	for origin, seq := range want {
		if got[origin] != seq {
			t.Errorf("cursor[%d] = %d, want %d", origin, got[origin], seq)
		}
	}
	// The survivors pulled nothing — they missed nothing.
	for _, bi := range []int{0, 1} {
		if got := brokers[bi].Stats().CatchupRecords; got != 0 {
			t.Errorf("broker %d CatchupRecords = %d, want 0", bi, got)
		}
	}
}

// TestCatchUpConvergesPastUnservableGap covers the eviction edge: records
// a rejoining broker missed can fall off every survivor's capped view
// (evicted by later traffic), so a pull for them returns an empty page.
// The catch-up must then jump the cursor to the peer's mark and converge
// instead of re-pulling the unservable gap on every sync round forever.
func TestCatchUpConvergesPastUnservableGap(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const nBrokers = 3
	lns := make([]net.Listener, nBrokers)
	peers := make([]PeerInfo, nBrokers)
	dataDirs := make([]string, nBrokers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = PeerInfo{Addr: ln.Addr().String(), Pos: Position{Zone: i, Rack: 0}}
		dataDirs[i] = t.TempDir()
	}
	mkBroker := func(i int, ln net.Listener) *Broker {
		b, err := NewBroker(BrokerConfig{
			Listener:    ln,
			ServerAddrs: []string{s.Addr()},
			DataDir:     dataDirs[i],
			ViewCap:     2, // tiny views: missed records get evicted everywhere
			Peers:       peers,
			Self:        i,
			SyncEvery:   50 * time.Millisecond,
			PolicyEvery: time.Hour,
			Placement:   &Placement{Broker: peers[i].Pos, Servers: []Position{{Zone: 0, Rack: 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	brokers := make([]*Broker, nBrokers)
	for i := range brokers {
		brokers[i] = mkBroker(i, lns[i])
		t.Cleanup(func(b *Broker) func() { return func() { b.Close() } }(brokers[i]))
	}

	// Pre-outage: one origin-0 write everyone has.
	pre, err := brokers[0].Write(1, []byte("pre"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !storeHolds(brokers[2].store, 1, pre) {
		time.Sleep(10 * time.Millisecond)
	}
	if !storeHolds(brokers[2].store, 1, pre) {
		t.Fatal("pre-outage write never reached broker 2")
	}
	if err := brokers[2].Close(); err != nil {
		t.Fatal(err)
	}
	refused := standIn(t, peers[2].Addr)

	// During the outage, broker 0 writes twice and broker 1 three times —
	// user 1's capped view ends up holding only broker 1's two newest
	// records, so broker 0's missed writes are retained nowhere.
	for i := 0; i < 2; i++ {
		if _, err := brokers[0].Write(1, []byte(fmt.Sprintf("origin0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := brokers[1].Write(1, []byte(fmt.Sprintf("origin1-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	refused.await(t, 5)

	brokers[2] = mkBroker(2, listenOn(t, peers[2].Addr))
	t.Cleanup(func() { brokers[2].Close() })
	want := brokers[0].store.Cursors()
	deadline = time.Now().Add(5 * time.Second)
	converged := func() bool {
		got := brokers[2].store.Cursors()
		for origin, mark := range want {
			if got[origin] < mark {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !converged() {
		time.Sleep(20 * time.Millisecond)
	}
	if !converged() {
		t.Fatalf("cursors never converged past the unservable gap: %v, want >= %v",
			brokers[2].store.Cursors(), want)
	}
	// The retained records did arrive and the views agree.
	if diff, ok := sameStoreViews(brokers[0].store, brokers[2].store, 2); !ok {
		t.Fatalf("views diverge after gap convergence: %s", diff)
	}
}

// restartServer starts a fresh, empty cache server on addr, retrying
// briefly while the old one's port becomes bindable again.
func restartServer(t *testing.T, addr string) *Server {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := NewServer(addr)
		if err == nil {
			t.Cleanup(func() { s.Close() })
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind server %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRestartedServerKeepsReplica pins the broker's one retry on a fresh
// connection: a write that finds its connection to a restarted cache
// server broken redials and succeeds, so the replica is neither reported
// failed nor dropped.
func TestRestartedServerKeepsReplica(t *testing.T) {
	b, servers, _ := testCluster(t, 2, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(1, 2)
		cfg.PolicyEvery = time.Hour
		cfg.Policy.AdmissionEpsilon = 100
	})
	hot := userHomedOn(t, b, 0)
	if _, err := b.Write(hot, []byte("first")); err != nil {
		t.Fatal(err)
	}
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = hot
	}
	for round := 0; round < 4 && b.ReplicaCount(hot) < 2; round++ {
		if _, err := b.Read(targets); err != nil {
			t.Fatal(err)
		}
	}
	replicas := b.ReplicaCount(hot)
	if replicas < 2 {
		t.Fatalf("hot view has %d replicas, want 2", replicas)
	}
	for i, s := range servers {
		addr := s.Addr()
		s.Close()
		restartServer(t, addr)
		if _, err := b.Write(hot, []byte(fmt.Sprintf("after restart %d", i))); err != nil {
			t.Fatalf("write after restarting server %d: %v", i, err)
		}
		if got := b.ReplicaCount(hot); got != replicas {
			t.Fatalf("replicas after restarting server %d = %d, want %d", i, got, replicas)
		}
	}
}

// TestReadRepairReinstallsRestartedReplica pins the read-repair path: a
// replica that fails a read is dropped and the view is served by the
// surviving replica; once the failed server is back, the repair probe
// re-admits it and re-fills its copy — at read time, without waiting for
// a policy tick.
func TestReadRepairReinstallsRestartedReplica(t *testing.T) {
	b, servers, _ := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(2, 3)
		cfg.MaxReplicas = 3
		cfg.PolicyEvery = time.Hour
		cfg.Policy.AdmissionEpsilon = 100
	})
	hot := userHomedOn(t, b, 0)
	if _, err := b.Write(hot, []byte("hot post")); err != nil {
		t.Fatal(err)
	}
	// Heat the user until the rack-local server replicates it:
	// replica set = {home 0, rack-local 2}, and reads serve from 2.
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = hot
	}
	for round := 0; round < 4 && b.ReplicaCount(hot) < 2; round++ {
		if _, err := b.Read(targets); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(hot); got != 2 {
		t.Fatalf("replicas = %d, want 2 (home + rack-local)", got)
	}

	// Kill the serving replica. The read must still succeed — served by
	// the surviving home replica — and the dead slot is dropped inline.
	addr := servers[2].Addr()
	servers[2].Close()
	v, err := b.ReadOne(hot)
	if err != nil {
		t.Fatalf("read with dead serving replica: %v", err)
	}
	if len(v.Events) != 1 || string(v.Events[0]) != "hot post" {
		t.Fatalf("fallback view = %+v", v)
	}

	// Restart the server on the same address (cold: it lost its copy) and
	// run the repair probe ReadOne schedules after a fallback. Whether this
	// call or the background attempt wins, the replica must be back.
	restartServer(t, addr)
	b.readdReplica(hot, 2, v)
	if got := b.ReplicaCount(hot); got != 2 {
		t.Fatalf("replicas after repair = %d, want 2", got)
	}
	// The repaired copy is really on the restarted server, current and
	// complete.
	conn := newLink(addr, serverCallTimeout, telemetry.Default())
	defer conn.Close()
	rv, ok, err := conn.getView(hot, telemetry.TraceContext{})
	if err != nil || !ok {
		t.Fatalf("restarted server has no copy: ok=%v err=%v", ok, err)
	}
	if rv.Version != v.Version || len(rv.Events) != 1 {
		t.Fatalf("repaired copy = %+v, want %+v", rv, v)
	}
}
