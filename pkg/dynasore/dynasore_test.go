package dynasore_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynasore/pkg/dynasore"
)

func openEngine(t *testing.T, cfg dynasore.EngineConfig) *dynasore.Engine {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	e, err := dynasore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// rackLocal lays out a broker and n cache servers: server local shares the
// broker's rack, and every other server i sits in rack i+1 of a remote
// zone. A local of -1 leaves the broker's zone empty, so the policy finds
// no replication target.
func rackLocal(local, n int) *dynasore.Placement {
	p := &dynasore.Placement{}
	for i := 0; i < n; i++ {
		if i == local {
			p.Servers = append(p.Servers, dynasore.Position{Zone: 0, Rack: 0})
		} else {
			p.Servers = append(p.Servers, dynasore.Position{Zone: 1, Rack: i + 1})
		}
	}
	return p
}

// storeSmoke exercises the Store contract against any backend.
func storeSmoke(t *testing.T, s dynasore.Store) {
	t.Helper()
	ctx := context.Background()
	seq1, err := s.Write(ctx, 7, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := s.Write(ctx, 7, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Errorf("sequence numbers not increasing: %d then %d", seq1, seq2)
	}
	views, err := s.Read(ctx, []uint32{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2", len(views))
	}
	if len(views[0].Events) != 2 || string(views[0].Events[1]) != "second" {
		t.Errorf("view of 7 = %q", views[0].Events)
	}
	if len(views[1].Events) != 0 {
		t.Errorf("view of unknown user = %q, want empty", views[1].Events)
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes < 2 || st.Reads < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineImplementsStore(t *testing.T) {
	storeSmoke(t, openEngine(t, dynasore.EngineConfig{}))
}

func TestClientImplementsStore(t *testing.T) {
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(context.Background(), e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	storeSmoke(t, c)
}

func TestEngineAndClientShareTheCluster(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := e.Write(ctx, 1, []byte("via engine")); err != nil {
		t.Fatal(err)
	}
	views, err := c.Read(ctx, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || len(views[0].Events) != 1 || string(views[0].Events[0]) != "via engine" {
		t.Fatalf("views = %+v", views)
	}
}

func TestClientBatchedRead(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 600 targets exceed the 256-target read batch: the read goes out as
	// three concurrent chunks (256, 256, 88) and is reassembled in order.
	targets := make([]uint32, 600)
	for i := range targets {
		targets[i] = uint32(i)
		if _, err := c.Write(ctx, uint32(i), []byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	views, err := c.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(targets) {
		t.Fatalf("views = %d, want %d", len(views), len(targets))
	}
	for i, v := range views {
		want := fmt.Sprintf("u%d", i)
		if len(v.Events) != 1 || string(v.Events[0]) != want {
			t.Errorf("view %d = %q, want %q", i, v.Events, want)
		}
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Reads - before.Reads; got != 3 {
		t.Errorf("broker served %d read requests, want 3 chunks", got)
	}
}

// TestEngineBatchedRead pins that an Engine reads through its network
// client: 600 targets reach the broker as three read requests, the same
// chunks TestClientBatchedRead counts, not as one in-process call.
func TestEngineBatchedRead(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{})
	targets := make([]uint32, 600)
	for i := range targets {
		targets[i] = uint32(i)
	}
	before, err := e.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	views, err := e.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(targets) {
		t.Fatalf("views = %d, want %d", len(views), len(targets))
	}
	after, err := e.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Reads - before.Reads; got != 3 {
		t.Errorf("broker served %d read requests, want 3 chunks", got)
	}
}

func TestClientEmptyRead(t *testing.T) {
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(context.Background(), e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	views, err := c.Read(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Errorf("views = %d, want 0", len(views))
	}
}

func TestContextCancellation(t *testing.T) {
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(context.Background(), e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]dynasore.Store{"engine": e, "client": c} {
		if _, err := s.Read(ctx, []uint32{1}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Read err = %v, want context.Canceled", name, err)
		}
		if _, err := s.Write(ctx, 1, []byte("x")); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Write err = %v, want context.Canceled", name, err)
		}
		if _, err := s.Stats(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Stats err = %v, want context.Canceled", name, err)
		}
	}
}

func TestClientConcurrentUse(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{})
	c, err := dynasore.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				u := uint32(w*100 + i)
				if _, err := c.Write(ctx, u, []byte("x")); err != nil {
					errs <- err
					return
				}
				if _, err := c.Read(ctx, []uint32{u}); err != nil {
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
}

func TestHotViewReplicationThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{
		CacheServers: 3,
		Placement:    rackLocal(2, 3),
		PolicyEvery:  time.Hour,
		Policy:       dynasore.PolicyConfig{AdmissionEpsilon: 100},
	})
	// Pick a user homed away from the rack-local server, so replication
	// onto it is profitable.
	hot := uint32(0)
	for e.HomeOf(hot) == 2 {
		hot++
	}
	if _, err := e.Write(ctx, hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Read(ctx, []uint32{hot}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.ReplicaCount(hot); got < 2 {
		t.Errorf("replicas = %d, want >= 2", got)
	}
}

func TestCrashedCacheServerFallsBackToWAL(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{CacheServers: 2, Placement: rackLocal(-1, 2)})
	// A user homed on server 1, which stays up when server 0 crashes.
	u := uint32(0)
	for e.HomeOf(u) != 1 {
		u++
	}
	if _, err := e.Write(ctx, u, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := e.CrashCacheServer(0); err != nil {
		t.Fatal(err)
	}
	views, err := e.Read(ctx, []uint32{u})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || string(views[0].Events[0]) != "durable" {
		t.Fatalf("views = %+v", views)
	}
	if err := e.CrashCacheServer(5); err == nil {
		t.Error("out-of-range crash accepted")
	}
}

func TestExplicitPlacementThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	// Server 1 shares the broker's rack; the policy must pick it (not the
	// default layout's server 0) as the replication target.
	e := openEngine(t, dynasore.EngineConfig{
		CacheServers: 2,
		Placement: &dynasore.Placement{
			Broker:  dynasore.Position{Zone: 0, Rack: 0},
			Servers: []dynasore.Position{{Zone: 1, Rack: 0}, {Zone: 0, Rack: 0}},
		},
		PolicyEvery: time.Hour,
		Policy:      dynasore.PolicyConfig{AdmissionEpsilon: 100},
	})
	// A user homed on the remote server 0, so the rack-local server 1 is
	// the profitable replication target.
	hot := uint32(0)
	for e.HomeOf(hot) != 0 {
		hot++
	}
	if _, err := e.Write(ctx, hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.Read(ctx, []uint32{hot}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.ReplicaCount(hot); got < 2 {
		t.Errorf("replicas = %d, want >= 2 (policy should use the placed rack-local server)", got)
	}
	st, err := e.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicated == 0 {
		t.Error("no replication recorded in stats")
	}
}

// TestCheckpointedRestartThroughPublicAPI drives the durability subsystem
// through the public surface: an Engine with checkpointing on a persistent
// data directory restarts from its parting snapshot (no WAL replay) and
// serves the same views; the checkpoint counter is visible in Stats.
func TestCheckpointedRestartThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	cfg := dynasore.EngineConfig{
		DataDir:         dataDir,
		CheckpointEvery: 20 * time.Millisecond,
		CompactAfter:    1,
	}
	e := openEngine(t, cfg)
	for i := 0; i < 40; i++ {
		if _, err := e.Write(ctx, uint32(i%4), []byte(fmt.Sprintf("event-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// At least one periodic checkpoint lands and surfaces in Stats.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := e.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Checkpoints >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st, _ := e.Stats(ctx); st.Checkpoints == 0 {
		t.Fatal("periodic checkpoints never surfaced in Stats")
	}
	want, err := e.Read(ctx, []uint32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openEngine(t, cfg)
	got, err := e2.Read(ctx, []uint32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Version != want[i].Version || len(got[i].Events) != len(want[i].Events) {
			t.Fatalf("user %d after restart: version %d/%d events, want %d/%d",
				i, got[i].Version, len(got[i].Events), want[i].Version, len(want[i].Events))
		}
	}
}

// TestClientRecoversFromBrokerRestart pins that a failure cooldown never
// turns a request away: a one-broker client has nothing to fail over to,
// so its first writes after the broker is back must reach it at once —
// concurrent ones included, which share the one redial.
func TestClientRecoversFromBrokerRestart(t *testing.T) {
	ctx := context.Background()
	s, err := dynasore.ListenCacheServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cfg := dynasore.BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: []string{s.Addr()},
		DataDir:          t.TempDir(),
		Placement:        rackLocal(-1, 1),
	}
	b, err := dynasore.ListenBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dynasore.DialCluster(ctx, []string{b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(ctx, 1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, 1, []byte("lost")); err == nil {
		t.Fatal("write to a closed broker succeeded")
	}
	b2, err := dynasore.ListenBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for u := uint32(1); u <= 8; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Write(ctx, u, []byte("after")); err != nil {
				errs <- fmt.Errorf("write to user %d right after the broker restarted: %w", u, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	views, err := c.Read(ctx, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := views[0].Events; len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
		t.Fatalf("events = %q, want [before after]", got)
	}
}

// TestBrokerRecoveryThroughPublicAPI checks ListenBroker's checkpointed
// restart reporting.
func TestBrokerRecoveryThroughPublicAPI(t *testing.T) {
	ctx := context.Background()
	s, err := dynasore.ListenCacheServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cfg := dynasore.BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: []string{s.Addr()},
		DataDir:          t.TempDir(),
		Placement:        rackLocal(-1, 1),
		CheckpointEvery:  time.Hour, // only the parting checkpoint
	}
	b, err := dynasore.ListenBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dynasore.Dial(ctx, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := c.Write(ctx, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := dynasore.ListenBroker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	from, replayed := b2.Recovery()
	if !from || replayed != 0 {
		t.Fatalf("Recovery() = (%v, %d), want parting-checkpoint recovery with no replay", from, replayed)
	}
}
