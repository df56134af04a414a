package cluster

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/internal/telemetry"
)

// hungListener accepts connections and never answers on them; accepts
// counts them. Everything closes with the test.
func hungListener(t *testing.T) (addr string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int32)
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String(), accepts
}

// TestDialBoundsHungHello pins dialTimeout on the whole dial: a peer that
// accepts and never answers the hello fails Dial within the bound even
// when the caller's context has no deadline, and the error names the
// address. It takes about dialTimeout.
func TestDialBoundsHungHello(t *testing.T) {
	t.Parallel()
	addr, _ := hungListener(t)
	start := time.Now()
	c, err := Dial(context.Background(), addr, 1)
	took := time.Since(start)
	if err == nil {
		c.Close()
		t.Fatal("Dial to a peer that never answers the hello succeeded")
	}
	if bound := dialTimeout + 2*time.Second; took > bound {
		t.Fatalf("Dial returned after %v, want within %v", took, bound)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("Dial error %q does not name %s", err, addr)
	}
}

// TestCloseDuringHungHello pins that a dial never holds up Close: with a
// request's hello hanging on a peer that never answers, Close returns at
// once and the request fails with it.
func TestCloseDuringHungHello(t *testing.T) {
	addr, accepts := hungListener(t)
	c := newClient(addr, 1, telemetry.Default())
	failed := make(chan error, 1)
	go func() {
		_, err := c.Stats(context.Background())
		failed <- err
	}()
	for accepts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1s while a hello hung")
	}
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("request on a closed client succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("request awaiting the hung dial still blocked 1s after Close")
	}
}

// TestDirectReaderCoolsRefusingServer pins the direct path's dial
// discipline: against a cache server whose hellos fail, 50 reads inside
// one cooldown cost at most one dial per pooled connection, and every
// read is answered through the broker path.
func TestDirectReaderCoolsRefusingServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close() // the hello reads EOF
		}
	}()
	d := NewDirectReader(0)
	t.Cleanup(func() { d.Close() })
	const user = 7
	var brokerReads int
	broker := func(_ context.Context, users []uint32) ([]View, error) {
		brokerReads++
		views := make([]View, len(users))
		for i := range views {
			views[i] = View{Version: 3}
		}
		return views, nil
	}
	lease := Lease{User: user, Epoch: 1, TTL: time.Minute, Replicas: []LeaseReplica{{Addr: ln.Addr().String()}}}
	for i := 0; i < 50; i++ {
		d.Install(lease) // a failed read drops the lease; re-arm the direct path
		views, _, err := d.ReadMany(context.Background(), []uint32{user}, broker)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if views[0].Version != 3 {
			t.Fatalf("read %d: version %d, want the broker's 3", i, views[0].Version)
		}
	}
	if brokerReads != 50 {
		t.Errorf("broker path answered %d of 50 reads", brokerReads)
	}
	if n := accepts.Load(); n > DefaultPoolSize {
		t.Errorf("%d dials in one cooldown, want at most %d (one per pooled connection)", n, DefaultPoolSize)
	}
}
