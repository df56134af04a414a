package dynasore_test

import (
	"context"
	"errors"
	"testing"

	"dynasore/pkg/dynasore"
)

// Admin errors must keep their sentinel identity through the whole network
// stack — broker dispatch, respError encoding, the network client — so callers
// (the HTTP gateway's status mapping above all) can classify them with
// errors.Is instead of matching on error text.
func TestAdminSentinelsSurviveTheWire(t *testing.T) {
	e, err := dynasore.Open(dynasore.EngineConfig{CacheServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	c, err := dynasore.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.DrainServer(ctx, "127.0.0.1:1"); !errors.Is(err, dynasore.ErrNoSuchServer) {
		t.Errorf("drain of unknown server = %v, want ErrNoSuchServer", err)
	}
	if _, err := c.RemoveServer(ctx, "127.0.0.1:1"); !errors.Is(err, dynasore.ErrNoSuchServer) {
		t.Errorf("remove of unknown server = %v, want ErrNoSuchServer", err)
	}
	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Same address, different position: not the idempotent re-registration
	// case, so the broker must reject the duplicate.
	if _, err := c.AddServer(ctx, m.Servers[0].Addr, dynasore.Position{Zone: 9, Rack: 9}, 0); !errors.Is(err, dynasore.ErrDuplicateServer) {
		t.Errorf("re-add at new position = %v, want ErrDuplicateServer", err)
	}
	if _, err := c.DrainServer(ctx, m.Servers[0].Addr); err != nil {
		t.Fatalf("drain first server: %v", err)
	}
	if _, err := c.DrainServer(ctx, m.Servers[1].Addr); !errors.Is(err, dynasore.ErrLastActive) {
		t.Errorf("drain of last active = %v, want ErrLastActive", err)
	}
}
