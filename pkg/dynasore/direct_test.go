package dynasore_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/pkg/dynasore"
)

// TestDirectReadsBasic exercises the fast path on a quiet cluster: the
// first read of a user goes through the broker and leases it, later reads
// go straight to the cache servers, and the results stay identical to the
// broker path's.
func TestDirectReadsBasic(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{CacheServers: 3, Placement: rackLocal(0, 3)})
	c, err := dynasore.DialCluster(ctx, []string{e.Addr()}, dynasore.WithDirectReads(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const users = 20
	for u := uint32(0); u < users; u++ {
		if _, err := c.Write(ctx, u, []byte(fmt.Sprintf("post of %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	targets := make([]uint32, users)
	for i := range targets {
		targets[i] = uint32(i)
	}
	// First read: all broker, kicks off background leasing. Keep reading
	// until the fast path serves; leases arrive within a few round trips.
	deadline := time.Now().Add(5 * time.Second)
	for {
		views, err := c.Read(ctx, targets)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range views {
			if len(v.Events) != 1 || string(v.Events[0]) != fmt.Sprintf("post of %d", i) {
				t.Fatalf("view of user %d = %+v", i, v)
			}
		}
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.DirectReads > 0 {
			if st.LeaseGrants == 0 {
				t.Errorf("direct reads served but LeaseGrants = 0: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no direct read served: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A write invalidates nothing — the direct path must still serve the
	// new version (replicas are updated synchronously on the write path).
	if _, err := c.Write(ctx, 3, []byte("second")); err != nil {
		t.Fatal(err)
	}
	views, err := c.Read(ctx, []uint32{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(views[0].Events) != 2 {
		t.Fatalf("after write, view = %+v", views[0])
	}
}

// TestDirectReadsSurviveChurn is the churn acceptance test of the
// direct-read fast path: readers lease views and read them directly while
// the cluster grows 2 → 4, a server holding replicas is drained (forcing
// its views — including the hot users' — to migrate out) and removed.
// Requirements: zero failed reads, zero wrong-version reads (every
// reader observes each user's version monotonically), and the fast path
// actually served (DirectReads > 0).
func TestDirectReadsSurviveChurn(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{
		CacheServers: 2,
		Placement:    rackLocal(-1, 2),
		PolicyEvery:  50 * time.Millisecond,
	})
	c, err := dynasore.DialCluster(ctx, []string{e.Addr()}, dynasore.WithDirectReads(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const users = 40
	for u := uint32(0); u < users; u++ {
		if _, err := c.Write(ctx, u, []byte(fmt.Sprintf("seed %d", u))); err != nil {
			t.Fatal(err)
		}
	}
	targets := make([]uint32, users)
	for i := range targets {
		targets[i] = uint32(i)
	}
	// Warm the lease cache before the churn starts.
	for i := 0; i < 5; i++ {
		if _, err := c.Read(ctx, targets); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var failed atomic.Int64
	var wrong atomic.Int64
	// firstFail names the first failed op: its kind, user(s) and error.
	var failMu sync.Mutex
	var firstFail string
	fail := func(op string, err error) {
		if failed.Add(1) == 1 {
			failMu.Lock()
			firstFail = fmt.Sprintf("%s: %v", op, err)
			failMu.Unlock()
		}
	}
	var wg sync.WaitGroup
	// Readers: each keeps its own high-water mark per user; a view below
	// it is a wrong-version read — the fencing failed.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]uint64, users)
			for {
				select {
				case <-stop:
					return
				default:
				}
				views, err := c.Read(ctx, targets)
				if err != nil {
					fail(fmt.Sprintf("read of users 0..%d", users-1), err)
					return
				}
				for i, v := range views {
					if v.Version < seen[i] {
						wrong.Add(1)
					} else {
						seen[i] = v.Version
					}
				}
			}
		}()
	}
	// One writer keeps versions moving, so a stale replica would be
	// observable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := uint32(i % users)
			if _, err := c.Write(ctx, u, []byte("churn post")); err != nil {
				fail(fmt.Sprintf("write of user %d", u), err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Grow 2 → 4 while the readers run.
	var added []*dynasore.CacheServer
	for i := 0; i < 2; i++ {
		s, err := dynasore.ListenCacheServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		added = append(added, s)
		if _, err := c.AddServer(ctx, s.Addr(), dynasore.Position{Zone: 2 + i, Rack: 0}, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Let the rebalance pass migrate views onto the new servers, then
	// drain an original server: every view it still holds — hot users
	// included — is forced to migrate out while direct reads target it.
	time.Sleep(300 * time.Millisecond)
	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim := m.Servers[0].Addr
	if _, err := c.DrainServer(ctx, victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err = c.Membership(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Servers[0].Replicas == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never completed: %+v", m.Servers[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.RemoveServer(ctx, victim); err != nil {
		t.Fatal(err)
	}
	// Keep reading a little past the removal, then stop.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		failMu.Lock()
		t.Errorf("%d reads/writes failed during churn; first: %s", n, firstFail)
		failMu.Unlock()
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d wrong-version reads during churn", n)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirectReads == 0 {
		t.Errorf("fast path never served during churn: %+v", st)
	}
	// Final consistency: every user still has all its events, served
	// through a fresh broker-path read.
	views, err := c.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if len(v.Events) == 0 {
			t.Errorf("user %d lost its events during churn: %+v", i, v)
		}
	}
}
