package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// userHomedOn returns a user ID whose view homes on cache-server slot idx
// under the broker's current membership epoch. Rendezvous hashing spreads
// homes evenly, so a suitable user is always found within a few tries —
// tests use this instead of assuming the retired modulo placement.
func userHomedOn(t testing.TB, b *Broker, idx int) uint32 {
	t.Helper()
	for u := uint32(0); u < 10_000; u++ {
		if b.HomeOf(u) == idx {
			return u
		}
	}
	t.Fatalf("no user among 10000 homes on server %d", idx)
	return 0
}

// testClient gives the network Client the ctx-free Read/Write/Stats
// shape the in-package tests are written against; every call runs under
// context.Background().
type testClient struct{ *Client }

// dialTest connects a testClient (one connection) to addr and closes it
// when the test ends.
func dialTest(tb testing.TB, addr string) testClient {
	tb.Helper()
	c, err := Dial(context.Background(), addr, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return testClient{c}
}

func (c testClient) Read(targets []uint32) ([]View, error) {
	return c.Client.Read(context.Background(), targets)
}

func (c testClient) Write(user uint32, payload []byte) (uint64, error) {
	return c.Client.Write(context.Background(), user, payload)
}

func (c testClient) Stats() (BrokerStats, error) {
	return c.Client.Stats(context.Background())
}

// rackLocal lays out a broker and n cache servers: server local shares the
// broker's rack, and every other server i sits in rack i+1 of a remote
// zone. A local of -1 leaves the broker's zone empty, so the policy finds
// no replication target.
func rackLocal(local, n int) *Placement {
	p := &Placement{}
	for i := 0; i < n; i++ {
		if i == local {
			p.Servers = append(p.Servers, Position{Zone: 0, Rack: 0})
		} else {
			p.Servers = append(p.Servers, Position{Zone: 1, Rack: i + 1})
		}
	}
	return p
}

// testCluster spins up n cache servers and one broker on ephemeral ports.
func testCluster(t *testing.T, n int, tweak func(*BrokerConfig)) (*Broker, []*Server, testClient) {
	t.Helper()
	var servers []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	cfg := BrokerConfig{
		Addr:        "127.0.0.1:0",
		ServerAddrs: addrs,
		DataDir:     t.TempDir(),
		Placement:   rackLocal(-1, n),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	b, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b, servers, dialTest(t, b.Addr())
}

func TestWriteThenRead(t *testing.T) {
	_, _, c := testCluster(t, 3, nil)
	if _, err := c.Write(7, []byte("first post")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(7, []byte("second post")); err != nil {
		t.Fatal(err)
	}
	views, err := c.Read([]uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("views = %d, want 1", len(views))
	}
	v := views[0]
	if len(v.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(v.Events))
	}
	if !bytes.Equal(v.Events[0], []byte("first post")) || !bytes.Equal(v.Events[1], []byte("second post")) {
		t.Errorf("events out of order: %q, %q", v.Events[0], v.Events[1])
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 1 || st.Writes != 2 {
		t.Errorf("stats = %+v, want 1 read and 2 writes", st)
	}
}

func TestReadManyUsers(t *testing.T) {
	_, _, c := testCluster(t, 3, nil)
	for u := uint32(0); u < 10; u++ {
		if _, err := c.Write(u, []byte(fmt.Sprintf("by-%d", u))); err != nil {
			t.Fatal(err)
		}
	}
	targets := []uint32{9, 0, 5, 3}
	views, err := c.Read(targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		want := fmt.Sprintf("by-%d", targets[i])
		if len(v.Events) != 1 || string(v.Events[0]) != want {
			t.Errorf("view %d = %q, want %q", i, v.Events, want)
		}
	}
}

func TestReadEmptyViewOfUnknownUser(t *testing.T) {
	_, _, c := testCluster(t, 2, nil)
	views, err := c.Read([]uint32{12345})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || len(views[0].Events) != 0 {
		t.Errorf("unknown user view = %+v, want empty", views[0])
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	_, _, c := testCluster(t, 2, nil)
	var prev uint64
	for i := 0; i < 5; i++ {
		seq, err := c.Write(1, []byte("e"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && seq != prev+1 {
			t.Errorf("seq %d after %d", seq, prev)
		}
		prev = seq
	}
}

func TestViewsDistributedAcrossServers(t *testing.T) {
	_, servers, c := testCluster(t, 3, nil)
	for u := uint32(0); u < 30; u++ {
		if _, err := c.Write(u, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range servers {
		if s.NumViews() == 0 {
			t.Errorf("server %d holds no views", i)
		}
	}
}

func TestCacheMissRefillsFromPersistentStore(t *testing.T) {
	b, servers, c := testCluster(t, 2, nil)
	if _, err := c.Write(4, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Simulate a cache-server wipe (crash without data loss thanks to WAL).
	home := servers[b.home(4)]
	home.drop(4)

	views, err := c.Read([]uint32{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(views[0].Events) != 1 || string(views[0].Events[0]) != "durable" {
		t.Errorf("recovered view = %q, want durable event", views[0].Events)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses == 0 {
		t.Error("expected a recorded cache miss")
	}
	// The view must be back in cache now.
	if _, ok := home.lookup(4); !ok {
		t.Error("view not re-installed in cache after miss")
	}
}

func TestBrokerRestartRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := BrokerConfig{Addr: "127.0.0.1:0", ServerAddrs: []string{s.Addr()}, DataDir: dir, Placement: rackLocal(-1, 1)}
	b, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(9, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	v, err := b2.ReadOne(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Events) != 1 || string(v.Events[0]) != "survives" {
		t.Errorf("view after broker restart = %q", v.Events)
	}
}

func TestHotViewReplication(t *testing.T) {
	b, servers, c := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(2, 3)
		cfg.PolicyEvery = time.Hour // no maintenance pass during the test
	})
	// A user homed on server 0 (remote); hammer reads through the broker.
	// The shared policy sees reads from the broker's zone and replicates
	// onto the rack-local server once the profit clears the admission bar.
	hot := userHomedOn(t, b, 0)
	if _, err := c.Write(hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Read([]uint32{hot}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(hot); got < 2 {
		t.Fatalf("hot view has %d replicas, want >= 2", got)
	}
	// The rack-local server must now hold the view.
	if _, ok := servers[2].lookup(hot); !ok {
		t.Error("rack-local server does not hold the hot view")
	}
	st := b.Stats()
	if st.Replicated == 0 {
		t.Error("no replication recorded")
	}
}

func TestAbandonedReplicaEviction(t *testing.T) {
	// Once a hot view is replicated next to the broker, the remote home
	// copy serves no reads; as soon as writes charge it maintenance cost,
	// the policy's maintenance pass removes it (negative utility, §3.2).
	b, servers, c := testCluster(t, 2, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(1, 2)
		cfg.PolicyEvery = 300 * time.Millisecond
	})
	flash := userHomedOn(t, b, 0)
	if _, err := c.Write(flash, []byte("flash")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Read([]uint32{flash}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(flash); got != 2 {
		t.Fatalf("replicas = %d, want 2 while hot", got)
	}
	// The crowd leaves; only writes remain.
	for i := 0; i < 10; i++ {
		if _, err := c.Write(flash, []byte("update")); err != nil {
			t.Fatal(err)
		}
	}
	// The pass unlinks the replica first and deletes the server's copy and
	// counts the eviction after, so wait for all three.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		_, still := servers[0].lookup(flash)
		if b.ReplicaCount(flash) == 1 && !still && b.Stats().Evicted > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := b.ReplicaCount(flash); got != 1 {
		t.Fatalf("replicas = %d after the crowd left, want 1", got)
	}
	// The surviving copy is the one near the broker; the abandoned home
	// replica was deleted from its server.
	if _, ok := servers[1].lookup(flash); !ok {
		t.Error("broker-local server lost the surviving replica")
	}
	if _, still := servers[0].lookup(flash); still {
		t.Error("abandoned replica not deleted from the home server")
	}
	if st := b.Stats(); st.Evicted == 0 {
		t.Error("no eviction recorded")
	}
}

func TestWritesRefreshAllReplicas(t *testing.T) {
	b, servers, c := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(2, 3)
		cfg.PolicyEvery = time.Hour
		cfg.Policy.AdmissionEpsilon = 100 // replicate after the first read
	})
	hot := userHomedOn(t, b, 0)
	if _, err := c.Write(hot, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Read([]uint32{hot}); err != nil {
			t.Fatal(err)
		}
	}
	if b.ReplicaCount(hot) < 2 {
		t.Fatal("replication did not trigger")
	}
	if _, err := c.Write(hot, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 2} {
		v, ok := lookupView(t, servers[idx], hot)
		if !ok {
			t.Fatalf("server %d lost the view", idx)
		}
		if len(v.Events) != 2 || string(v.Events[1]) != "v2" {
			t.Errorf("server %d stale after write: %q", idx, v.Events)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	b, _, _ := testCluster(t, 3, nil)
	const workers = 8
	const opsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(context.Background(), b.Addr(), 1)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			c := testClient{cl}
			for i := 0; i < opsEach; i++ {
				u := uint32(w*opsEach + i)
				if _, err := c.Write(u, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if _, err := c.Read([]uint32{u}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Writes != workers*opsEach {
		t.Errorf("writes = %d, want %d", st.Writes, workers*opsEach)
	}
}

func TestServerStats(t *testing.T) {
	_, servers, c := testCluster(t, 1, nil)
	if _, err := c.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read([]uint32{1}); err != nil {
		t.Fatal(err)
	}
	if st := servers[0].Stats(); st.Views != 1 || st.Puts == 0 || st.Hits == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdmissionSwapEvictsWeakestOnFullServer(t *testing.T) {
	// ServerCapacity 1: the broker-local server can hold one policy-placed
	// view. A lukewarm view takes the slot first; a hotter view must then
	// displace it (swap-on-admission eviction over the eviction floor).
	b, servers, c := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(2, 3)
		cfg.PolicyEvery = time.Hour // maintenance run by hand below
		cfg.ServerCapacity = 1
		cfg.Policy.AdmissionEpsilon = 100
	})
	// One user homed on server 1, another on server 0; both remote from
	// the broker.
	luke := userHomedOn(t, b, 1)
	hot := userHomedOn(t, b, 0)
	for i := 0; i < 3; i++ {
		if _, err := c.Read([]uint32{luke}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(luke); got != 2 {
		t.Fatalf("lukewarm view replicas = %d, want 2", got)
	}
	// Refresh eviction floors so admission can price the full server.
	b.maintainOnce(time.Now().Unix())
	for i := 0; i < 12; i++ {
		if _, err := c.Read([]uint32{hot}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(hot); got != 2 {
		t.Fatalf("hot view replicas = %d, want 2 (should displace the weak one)", got)
	}
	if got := b.ReplicaCount(luke); got != 1 {
		t.Errorf("displaced view replicas = %d, want 1", got)
	}
	if _, ok := servers[2].lookup(hot); !ok {
		t.Error("full server does not hold the hot view after the swap")
	}
	if _, still := servers[2].lookup(luke); still {
		t.Error("displaced view still cached on the full server")
	}
	if st := b.Stats(); st.Evicted == 0 {
		t.Error("swap eviction not recorded")
	}
}

func TestBrokerValidation(t *testing.T) {
	if _, err := NewBroker(BrokerConfig{Addr: "127.0.0.1:0", DataDir: t.TempDir()}); err == nil {
		t.Error("broker without servers accepted")
	}
	// An explicit placement must position every cache server.
	if _, err := NewBroker(BrokerConfig{
		Addr: "127.0.0.1:0", ServerAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"},
		DataDir:   t.TempDir(),
		Placement: &Placement{Servers: []Position{{Zone: 0, Rack: 0}}},
	}); err == nil {
		t.Error("placement covering 1 of 2 servers accepted")
	}
}

// TestCrashRecoveryReplicationInterplay restarts a cache server mid-run and
// verifies the pieces cooperate: a write to a dead replica surfaces the
// failure and drops it from the set, reads keep being served with fresh
// versions, and once the server is back the shared policy re-creates the
// replica, refilled from the WAL — never a stale version.
func TestCrashRecoveryReplicationInterplay(t *testing.T) {
	b, servers, c := testCluster(t, 2, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(1, 2)
		cfg.PolicyEvery = time.Hour       // placement changes only via the read path
		cfg.Policy.AdmissionEpsilon = 100 // replicate after the first read
	})
	u := userHomedOn(t, b, 0)
	if _, err := c.Write(u, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Read([]uint32{u}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(u); got != 2 {
		t.Fatalf("replicas before crash = %d, want 2", got)
	}

	// Crash the broker-local replica holder.
	replicaAddr := servers[1].Addr()
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	// A write now updates only the surviving replica; the failure must be
	// visible to the caller and the dead replica leaves the set.
	if _, err := b.Write(u, []byte("v2")); err == nil {
		t.Fatal("write with a dead replica reported no error")
	}
	if got := b.ReplicaCount(u); got != 1 {
		t.Fatalf("replicas after failed update = %d, want 1 (dead replica dropped)", got)
	}
	// Reads keep working and serve the latest version.
	views, err := c.Read([]uint32{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(views[0].Events) != 2 || string(views[0].Events[1]) != "v2" {
		t.Fatalf("post-crash read = %q, want [v1 v2]", views[0].Events)
	}

	// The server comes back empty (its cache died with it).
	restarted, err := NewServer(replicaAddr)
	if err != nil {
		t.Fatalf("restart cache server: %v", err)
	}
	t.Cleanup(func() { restarted.Close() })

	// Continued reads make the policy re-create the replica; the cache
	// fill comes from the WAL, so the restarted server holds the newest
	// version, not the one it crashed with.
	for i := 0; i < 6; i++ {
		if _, err := c.Read([]uint32{u}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(u); got != 2 {
		t.Fatalf("replicas after recovery = %d, want 2 (policy re-created)", got)
	}
	v, ok := lookupView(t, restarted, u)
	if !ok {
		t.Fatal("restarted server holds no replica")
	}
	if len(v.Events) != 2 || string(v.Events[1]) != "v2" {
		t.Errorf("restarted replica stale: %q, want [v1 v2]", v.Events)
	}
}

func TestProtocolViewRoundTrip(t *testing.T) {
	v := View{Version: 42, Events: [][]byte{[]byte("a"), {}, []byte("ccc")}, seqs: []uint64{7, 30, 42}}
	buf := encodeView(nil, v)
	got, rest, err := decodeView(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("trailing bytes: %d", len(rest))
	}
	if got.Version != 42 || len(got.Events) != 3 || string(got.Events[2]) != "ccc" || !slices.Equal(got.seqs, v.seqs) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, _, err := decodeView([]byte{1, 2}); err == nil {
		t.Error("short view accepted")
	}
}

// TestHungCacheServerBoundsWriteAndClose: a cache server that accepts
// connections but never answers fails a write to a user it holds within
// the broker's server-call bound, and cannot keep Broker.Close waiting.
func TestHungCacheServerBoundsWriteAndClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})

	b, _, c := testCluster(t, 1, func(cfg *BrokerConfig) {
		cfg.ServerAddrs = append(cfg.ServerAddrs, ln.Addr().String())
		cfg.Placement = rackLocal(-1, 2)
	})
	user := userHomedOn(t, b, 1)
	bound := serverCallTimeout + 3*time.Second
	written := make(chan error, 1)
	go func() {
		_, err := c.Write(user, []byte("into the void"))
		written <- err
	}()
	select {
	case err := <-written:
		if err == nil {
			t.Error("write to a user homed on a hung server succeeded")
		}
	case <-time.After(bound):
		t.Fatalf("write still blocked after %v", bound)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(bound):
		t.Fatalf("Broker.Close still waiting after %v", bound)
	}
}
