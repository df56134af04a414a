package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// TestDirectLeaseExpiryFallsBackAndReleases pins the lease lifecycle
// against a real broker: a granted lease serves the fast path, an expired
// lease reports a miss (the caller's broker fallback), and a fresh grant
// restores direct service with a view no older than before.
func TestDirectLeaseExpiryFallsBackAndReleases(t *testing.T) {
	b, _, c := testCluster(t, 2, nil)
	user := userHomedOn(t, b, 0)
	if _, err := c.Write(user, []byte("leased post")); err != nil {
		t.Fatal(err)
	}

	d := NewDirectReader(0)
	t.Cleanup(func() { d.Close() })
	lease, err := b.leaseFor(user)
	if err != nil {
		t.Fatal(err)
	}
	if lease.TTL != leaseTTL {
		t.Fatalf("lease TTL = %v, want %v", lease.TTL, leaseTTL)
	}
	// Expire the installed copy early rather than wait out the real TTL.
	lease.TTL = 150 * time.Millisecond
	d.Install(lease)
	if !d.HasLease(user) {
		t.Fatal("installed lease not cached")
	}

	ctx := context.Background()
	v, ok := d.TryRead(ctx, user)
	if !ok {
		t.Fatal("valid lease did not serve directly")
	}
	if len(v.Events) != 1 || !bytes.Equal(v.Events[0], []byte("leased post")) {
		t.Fatalf("direct view = %+v", v)
	}
	served := v.Version

	// Past the TTL the fast path must refuse — this miss is exactly what
	// sends the caller to the (always correct) broker path.
	time.Sleep(lease.TTL + 50*time.Millisecond)
	if _, ok := d.TryRead(ctx, user); ok {
		t.Fatal("expired lease still served the fast path")
	}
	if d.HasLease(user) {
		t.Fatal("expired lease still reported as cached")
	}
	_, stale := d.Counters()
	if stale == 0 {
		t.Fatal("expired-lease miss not counted as a fallback")
	}

	// The broker re-leases on demand; the new grant serves again and can
	// never hand back a view older than one this client already returned.
	if _, err := c.Write(user, []byte("second post")); err != nil {
		t.Fatal(err)
	}
	release, err := b.leaseFor(user)
	if err != nil {
		t.Fatal(err)
	}
	d.Install(release)
	v2, ok := d.TryRead(ctx, user)
	if !ok {
		t.Fatal("re-leased user did not serve directly")
	}
	if v2.Version <= served {
		t.Fatalf("re-leased read went backwards: %d after %d", v2.Version, served)
	}
}

// TestDirectLeaseLRUEvictionUnderChurn fills a deliberately tiny lease
// cache past capacity and checks both halves of the eviction contract:
// cold users fall off (their next read is a broker fallback, never a
// guess), and a user evicted then re-leased after more writes serves the
// current version — eviction can never resurrect a stale replica.
func TestDirectLeaseLRUEvictionUnderChurn(t *testing.T) {
	b, _, c := testCluster(t, 3, nil)
	const capLeases = 4
	const users = 10
	d := NewDirectReader(capLeases)
	t.Cleanup(func() { d.Close() })
	ctx := context.Background()

	versions := make(map[uint32]uint64, users)
	for u := uint32(0); u < users; u++ {
		if _, err := c.Write(u, []byte(fmt.Sprintf("post of %d", u))); err != nil {
			t.Fatal(err)
		}
		lease, err := b.leaseFor(u)
		if err != nil {
			t.Fatal(err)
		}
		d.Install(lease)
		v, ok := d.TryRead(ctx, u)
		if !ok {
			t.Fatalf("user %d: fresh lease did not serve", u)
		}
		versions[u] = v.Version
	}

	// Only the most recently used capLeases users survive.
	cached := 0
	for u := uint32(0); u < users; u++ {
		if d.HasLease(u) {
			cached++
			if u < users-capLeases {
				t.Errorf("cold user %d still leased past capacity", u)
			}
		}
	}
	if cached != capLeases {
		t.Fatalf("%d leases cached, cap is %d", cached, capLeases)
	}

	// An evicted user's next direct attempt is a miss — the fallback that
	// keeps eviction correct rather than merely bounded.
	if _, ok := d.TryRead(ctx, 0); ok {
		t.Fatal("evicted user 0 served the fast path without a lease")
	}

	// Churn: more writes move user 0's view forward while it holds no
	// lease. Re-leasing must serve the new version, not a cached ghost.
	for i := 0; i < 3; i++ {
		if _, err := c.Write(0, []byte(fmt.Sprintf("late post %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lease, err := b.leaseFor(0)
	if err != nil {
		t.Fatal(err)
	}
	d.Install(lease)
	v, ok := d.TryRead(ctx, 0)
	if !ok {
		t.Fatal("re-leased user 0 did not serve")
	}
	if v.Version <= versions[0] {
		t.Fatalf("re-leased read of user 0 stale: version %d, want > %d", v.Version, versions[0])
	}
	if got := len(v.Events); got < 2 {
		t.Fatalf("re-leased view lost churned writes: %d events", got)
	}
}

// TestDirectReadVersionFence checks the client-side fence: once a version
// has been observed for a user on any path, a direct replica answering
// below it is refused and the lease is invalidated, even though both wire
// tokens (epoch, placement version) still match.
func TestDirectReadVersionFence(t *testing.T) {
	b, _, c := testCluster(t, 2, nil)
	user := userHomedOn(t, b, 0)
	if _, err := c.Write(user, []byte("fenced post")); err != nil {
		t.Fatal(err)
	}
	d := NewDirectReader(0)
	t.Cleanup(func() { d.Close() })
	lease, err := b.leaseFor(user)
	if err != nil {
		t.Fatal(err)
	}
	d.Install(lease)

	// Simulate a fresher observation from the broker path than anything
	// the cache servers hold.
	d.Observe(user, 1<<40)
	if _, ok := d.TryRead(context.Background(), user); ok {
		t.Fatal("direct read served below the observed version fence")
	}
	if d.HasLease(user) {
		t.Fatal("fenced lease not invalidated")
	}
}
