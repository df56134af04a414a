package dynasore

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startBrokerCluster launches nServers cache servers and three standalone
// brokers with per-broker WALs, peered into one cluster, and returns the
// brokers plus their addresses.
func startBrokerCluster(t *testing.T, nServers int) ([]*Broker, []string) {
	t.Helper()
	var serverAddrs []string
	for i := 0; i < nServers; i++ {
		s, err := ListenCacheServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		serverAddrs = append(serverAddrs, s.Addr())
	}
	// Every broker needs the full peer list before starting, so reserve
	// the cluster's listeners first.
	const n = 3
	lns := make([]net.Listener, n)
	peers := make([]BrokerPeer, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		peers[i] = BrokerPeer{Addr: addrs[i], Pos: Position{Zone: i, Rack: 0}}
	}
	serverPos := make([]Position, nServers)
	for i := range serverPos {
		serverPos[i] = Position{Zone: i % n, Rack: 1}
	}
	brokers := make([]*Broker, n)
	for i := range brokers {
		b, err := ListenBroker(BrokerConfig{
			Listener:         lns[i],
			CacheServerAddrs: serverAddrs,
			DataDir:          t.TempDir(),
			Placement:        &Placement{Broker: peers[i].Pos, Servers: serverPos},
			Peers:            peers,
			Self:             i,
			SyncEvery:        50 * time.Millisecond,
			PolicyEvery:      time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		brokers[i] = b
	}
	return brokers, addrs
}

func TestDialClusterServesAndFailsOver(t *testing.T) {
	brokers, addrs := startBrokerCluster(t, 4)
	ctx := context.Background()
	c, err := DialCluster(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const users = 20
	for u := uint32(0); u < users; u++ {
		if _, err := c.Write(ctx, u, []byte(fmt.Sprintf("u%d", u))); err != nil {
			t.Fatal(err)
		}
	}
	targets := make([]uint32, users)
	for i := range targets {
		targets[i] = uint32(i)
	}
	views, err := c.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		want := fmt.Sprintf("u%d", i)
		if len(v.Events) != 1 || string(v.Events[0]) != want {
			t.Fatalf("view %d = %q, want %q", i, v.Events, want)
		}
	}
	// Separate Read calls round-robin across the broker tier.
	for u := uint32(0); u < users; u++ {
		if _, err := c.Read(ctx, []uint32{u}); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin spread the reads: more than one broker served.
	serving := 0
	for _, b := range brokers {
		// Each broker's own counters are visible through Dial; the
		// aggregate through the cluster client covers all of them.
		one, err := Dial(ctx, b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		st, err := one.Stats(ctx)
		one.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Reads > 0 {
			serving++
		}
	}
	if serving < 2 {
		t.Errorf("reads hit %d brokers, want >= 2 (round robin)", serving)
	}
	agg, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Writes != users {
		t.Errorf("aggregated writes = %d, want %d", agg.Writes, users)
	}

	// Kill one broker: the client fails over and the cluster keeps
	// serving both paths.
	if err := brokers[2].Close(); err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < users; u++ {
		if _, err := c.Write(ctx, u, []byte("after-death")); err != nil {
			t.Fatalf("write after broker death: %v", err)
		}
	}
	views, err = c.Read(ctx, targets)
	if err != nil {
		t.Fatalf("read after broker death: %v", err)
	}
	for i, v := range views {
		if len(v.Events) != 2 || string(v.Events[1]) != "after-death" {
			t.Fatalf("view %d after death = %q", i, v.Events)
		}
	}
}

// TestClusterClientRefreshesMembershipOnNewEpoch verifies the end-to-end
// epoch plumbing: read/write responses carry the broker's membership
// epoch, and the cluster client notices an advance and refreshes its
// cached server table without being asked.
func TestClusterClientRefreshesMembershipOnNewEpoch(t *testing.T) {
	ctx := context.Background()
	_, addrs := startBrokerCluster(t, 2)
	c, err := DialCluster(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Write(ctx, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := c.Epoch(); got != 1 {
		t.Fatalf("epoch after first write = %d, want 1", got)
	}

	s, err := ListenCacheServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// Mutate through the client itself — any broker works, followers
	// forward to the leader.
	m, err := c.AddServer(ctx, s.Addr(), Position{Zone: 2, Rack: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 {
		t.Fatalf("epoch after add = %d, want 2", m.Epoch)
	}

	// Every broker converges; ordinary traffic then carries epoch 2 and
	// the client's cached membership follows.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Read(ctx, []uint32{1}); err != nil {
			t.Fatal(err)
		}
		if cached, ok := c.CachedMembership(); ok && cached.Epoch >= 2 && c.Epoch() >= 2 {
			if len(cached.Servers) != 3 {
				t.Fatalf("cached membership has %d servers, want 3", len(cached.Servers))
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never refreshed: epoch=%d", c.Epoch())
}

func TestDialClusterRequiresReachableBroker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := DialCluster(ctx, []string{"127.0.0.1:1"}); err == nil {
		t.Error("DialCluster with only an unreachable broker succeeded")
	}
	if _, err := DialCluster(ctx, nil); err == nil {
		t.Error("DialCluster with no addresses succeeded")
	}
}

// TestDialClusterSkipsHungBroker pins that a broker which accepts and
// never answers costs one bounded eager dial, not a stalled client:
// DialCluster returns with the live broker alone, and the reads and
// writes that follow — those whose turn or write affinity falls on the
// hung broker included — complete through the live one. It takes about
// one dial timeout.
func TestDialClusterSkipsHungBroker(t *testing.T) {
	t.Parallel()
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
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
	s, err := ListenCacheServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	b, err := ListenBroker(BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: []string{s.Addr()},
		DataDir:          t.TempDir(),
		Placement:        &Placement{Servers: []Position{{Zone: 1, Rack: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	ctx := context.Background()
	c, err := DialCluster(ctx, []string{b.Addr(), hung.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		u := uint32(i / 2)
		start := time.Now()
		if i%2 == 0 {
			_, err = c.Write(ctx, u, []byte("post"))
		} else {
			_, err = c.Read(ctx, []uint32{u})
		}
		if err != nil {
			t.Fatalf("op %d (user %d): %v", i, u, err)
		}
		if took := time.Since(start); took >= time.Second {
			t.Fatalf("op %d (user %d) took %v with one broker hung, want under 1s", i, u, took)
		}
	}
}

func TestMultiBrokerLeaderVisibleThroughPublicAPI(t *testing.T) {
	brokers, _ := startBrokerCluster(t, 3)
	if !brokers[0].IsLeader() {
		t.Error("smallest-position broker is not leader")
	}
	for i, b := range brokers {
		if got := b.Leader(); got != 0 {
			t.Errorf("broker %d reports leader %d, want 0", i, got)
		}
	}
	// Placement decisions propagate: hammer a view homed away from zone 2
	// through the zone-2 follower and wait for all brokers to agree on a
	// >= 2 replica set.
	hot := uint32(0)
	for brokers[0].HomeOf(hot) == 2 {
		hot++
	}
	ctx := context.Background()
	c, err := Dial(ctx, brokers[2].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(ctx, hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Read(ctx, []uint32{hot}); err != nil {
			t.Fatal(err)
		}
		s0, s2 := brokers[0].ReplicaSet(hot), brokers[2].ReplicaSet(hot)
		if len(s0) >= 2 && len(s0) == len(s2) && s0[0] == s2[0] && s0[1] == s2[1] {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("replica sets did not converge: %v / %v", brokers[0].ReplicaSet(hot), brokers[2].ReplicaSet(hot))
}
