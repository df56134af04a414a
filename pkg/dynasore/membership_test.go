package dynasore_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dynasore/pkg/dynasore"
)

// TestEngineElasticMembership drives the Admin API through the in-process
// Engine: grow the cluster with an externally started cache server, watch
// homes rebalance, then drain and remove it again.
func TestEngineElasticMembership(t *testing.T) {
	ctx := context.Background()
	e := openEngine(t, dynasore.EngineConfig{
		CacheServers: 2,
		Placement:    rackLocal(-1, 2),
		PolicyEvery:  50 * time.Millisecond,
		Policy:       dynasore.PolicyConfig{AdmissionEpsilon: 1e12},
	})
	const users = 100
	for u := uint32(0); u < users; u++ {
		if _, err := e.Write(ctx, u, []byte(fmt.Sprintf("u%d", u))); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Read(ctx, []uint32{u}); err != nil {
			t.Fatal(err)
		}
	}
	before := make([]int, users)
	for u := range before {
		before[u] = e.HomeOf(uint32(u))
	}

	s, err := dynasore.ListenCacheServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	m, err := e.AddServer(ctx, s.Addr(), dynasore.Position{Zone: 2, Rack: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || len(m.Servers) != 3 || m.NumActive() != 3 {
		t.Fatalf("membership after add: %+v", m)
	}
	moved := 0
	for u := range before {
		if h := e.HomeOf(uint32(u)); h != before[u] {
			moved++
			if h != 2 {
				t.Fatalf("user %d moved to slot %d, want the new slot 2", u, h)
			}
		}
	}
	if moved == 0 || moved >= users*6/10 {
		t.Fatalf("add moved %d/%d homes, want fair share below 60%%", moved, users)
	}
	// The rebalance pass copies the moved views onto the new server.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m, err = e.Membership(ctx); err != nil {
			t.Fatal(err)
		}
		if m.Servers[2].Replicas > 0 && s.NumViews() > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Servers[2].Replicas == 0 || s.NumViews() == 0 {
		t.Fatalf("new server took no replicas: %+v, cached %d", m.Servers[2], s.NumViews())
	}

	// Drain it again: replicas fall to zero, reads keep serving all data.
	if m, err = e.DrainServer(ctx, s.Addr()); err != nil {
		t.Fatal(err)
	}
	if m.Servers[2].State != dynasore.ServerDraining {
		t.Fatalf("state after drain = %v", m.Servers[2].State)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m, err = e.Membership(ctx); err != nil {
			t.Fatal(err)
		}
		if m.Servers[2].Replicas == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.Servers[2].Replicas != 0 {
		t.Fatalf("drained server still holds %d replicas", m.Servers[2].Replicas)
	}
	for u := uint32(0); u < users; u++ {
		views, err := e.Read(ctx, []uint32{u})
		if err != nil {
			t.Fatalf("read during drain: %v", err)
		}
		if len(views[0].Events) == 0 {
			t.Fatalf("user %d lost its events during the drain", u)
		}
	}
	if m, err = e.RemoveServer(ctx, s.Addr()); err != nil {
		t.Fatal(err)
	}
	if m.Servers[2].State != dynasore.ServerDead || m.Epoch != 4 {
		t.Fatalf("after remove: %+v", m)
	}
	st, err := e.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 {
		t.Errorf("Stats.Epoch = %d, want 4", st.Epoch)
	}
}
