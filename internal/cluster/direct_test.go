package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
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
	if !hasLease(d, user) {
		t.Fatal("installed lease not cached")
	}

	v, ok := readDirect(t, d, user)
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
	if _, ok := readDirect(t, d, user); ok {
		t.Fatal("expired lease still served the fast path")
	}
	if hasLease(d, user) {
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
	v2, ok := readDirect(t, d, user)
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
		v, ok := readDirect(t, d, u)
		if !ok {
			t.Fatalf("user %d: fresh lease did not serve", u)
		}
		versions[u] = v.Version
	}

	// Only the most recently used capLeases users survive.
	cached := 0
	for u := uint32(0); u < users; u++ {
		if hasLease(d, u) {
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
	if _, ok := readDirect(t, d, 0); ok {
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
	v, ok := readDirect(t, d, 0)
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
	observe(d, user, 1<<40)
	if _, ok := readDirect(t, d, user); ok {
		t.Fatal("direct read served below the observed version fence")
	}
	if hasLease(d, user) {
		t.Fatal("fenced lease not invalidated")
	}
	// The fence outlives the lease: a fresh grant naming the same replicas
	// is still refused below the observed version.
	release, err := b.leaseFor(user)
	if err != nil {
		t.Fatal(err)
	}
	d.Install(release)
	if _, ok := readDirect(t, d, user); ok {
		t.Fatal("re-leased user served below the fence its dropped lease held")
	}
}

// TestBrokerReadFencesNextLease checks that a version a broker read
// returned fences the lease granted after it: a user read through the
// broker at a version no cache server holds is refused on the fast path
// once leased, instead of reading a replica behind it.
func TestBrokerReadFencesNextLease(t *testing.T) {
	b, _, c := testCluster(t, 2, nil)
	user := userHomedOn(t, b, 0)
	if _, err := c.Write(user, []byte("post")); err != nil {
		t.Fatal(err)
	}
	d := NewDirectReader(0)
	t.Cleanup(func() { d.Close() })
	_, unleased, err := d.ReadMany(context.Background(), []uint32{user}, func(_ context.Context, users []uint32) ([]View, error) {
		return []View{{Version: 1 << 40}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(unleased) != 1 || unleased[0] != user {
		t.Fatalf("unleased = %v, want [%d]", unleased, user)
	}
	lease, err := b.leaseFor(user)
	if err != nil {
		t.Fatal(err)
	}
	d.Install(lease)
	fences := d.ctrFence.Load()
	if _, ok := readDirect(t, d, user); ok {
		t.Fatal("direct read served below the version a broker read returned")
	}
	if got := d.ctrFence.Load() - fences; got != 1 {
		t.Fatalf("version_fence rose by %d, want 1", got)
	}
}

// readDirect reads user through d's fast path alone: ok is false when
// ReadMany sent the user to the broker instead.
func readDirect(t *testing.T, d *DirectReader, user uint32) (View, bool) {
	t.Helper()
	brokered := false
	views, _, err := d.ReadMany(context.Background(), []uint32{user}, func(_ context.Context, users []uint32) ([]View, error) {
		brokered = true
		return make([]View, len(users)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return views[0], !brokered
}

// TestReadManyMixedBatch sends one ReadMany down every rung of the ladder
// at once: two plain hits, a user with no lease, an expired lease, a
// stale route, a replica 0 that no longer holds the view (served by
// replica 1 in the next round) and a client-side version fence. Each
// user gets the answer of its own rung, each ladder counter moves by the
// users on it, and the servers count views served, not frames.
func TestReadManyMixedBatch(t *testing.T) {
	b, servers, c := testCluster(t, 3, nil)
	var onZero []uint32
	for u := uint32(0); len(onZero) < 4; u++ {
		if b.HomeOf(u) == 0 {
			onZero = append(onZero, u)
		}
	}
	hitA, hitB, stale, fenced := onZero[0], onZero[1], onZero[2], onZero[3]
	moved := userHomedOn(t, b, 1)
	noLease, expired := uint32(20_000), uint32(20_001)
	targets := []uint32{hitA, noLease, stale, moved, expired, fenced, hitB}
	for _, u := range targets {
		if _, err := c.Write(u, []byte(fmt.Sprintf("post of %d", u))); err != nil {
			t.Fatal(err)
		}
	}

	d := NewDirectReader(0)
	t.Cleanup(func() { d.Close() })
	lease := func(u uint32) Lease {
		t.Helper()
		l, err := b.leaseFor(u)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, u := range []uint32{hitA, hitB, stale, fenced} {
		d.Install(lease(u))
	}
	// Expire one lease early rather than wait out the real TTL.
	short := lease(expired)
	short.TTL = time.Millisecond
	d.Install(short)
	// A put under a newer placement version than the lease carries: the
	// server must refuse the lease's route.
	cv, ok := servers[0].lookup(stale)
	if !ok {
		t.Fatalf("user %d not cached on its home", stale)
	}
	servers[0].install(stale, cv.View, cv.placement+1, len(cv.Events))
	// Replica 0 of this lease is a server that does not hold the view.
	if _, ok := servers[2].lookup(moved); ok {
		t.Fatalf("user %d unexpectedly cached on server 2", moved)
	}
	ml := lease(moved)
	ml.Replicas = append([]LeaseReplica{{Slot: 2, Addr: servers[2].Addr()}}, ml.Replicas...)
	d.Install(ml)
	// A version this client already saw beyond anything the servers hold.
	observe(d, fenced, 1<<40)
	// Every server must know the epoch, or its answer is a stale route
	// instead of the one under test.
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range servers {
		for s.Epoch() != ml.Epoch {
			if time.Now().After(deadline) {
				t.Fatalf("server %s never learned epoch %d", s.Addr(), ml.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(5 * time.Millisecond)

	ladder := func() [5]int64 {
		return [5]int64{d.ctrHit.Load(), d.ctrNoLease.Load(), d.ctrExpired.Load(), d.ctrFence.Load(), d.ctrFallbck.Load()}
	}
	serverReads := func() (reads, stale int64) {
		for _, s := range servers {
			st := s.Stats()
			reads += st.DirectReads
			stale += st.DirectStale
		}
		return reads, stale
	}
	ladderBefore := ladder()
	readsBefore, staleBefore := serverReads()

	const brokerVersion = 7777
	var mu sync.Mutex
	var calls [][]uint32
	views, unleased, err := d.ReadMany(context.Background(), targets, func(_ context.Context, users []uint32) ([]View, error) {
		mu.Lock()
		calls = append(calls, append([]uint32(nil), users...))
		mu.Unlock()
		out := make([]View, len(users))
		for i := range out {
			out[i].Version = brokerVersion
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, u := range targets {
		direct := u == hitA || u == hitB || u == moved
		switch v := views[i]; {
		case direct && (len(v.Events) != 1 || string(v.Events[0]) != fmt.Sprintf("post of %d", u)):
			t.Errorf("user %d: direct view = %+v", u, v)
		case !direct && v.Version != brokerVersion:
			t.Errorf("user %d: view = %+v, want the broker's", u, v)
		}
	}
	// The users with no valid lease go to the broker in one call, the
	// users the rounds could not serve in another.
	var got []string
	for _, users := range calls {
		got = append(got, fmt.Sprint(users))
	}
	sort.Strings(got)
	want := []string{fmt.Sprint([]uint32{noLease, expired}), fmt.Sprint([]uint32{stale, fenced})}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("broker calls = %v, want %v", got, want)
	}
	if fmt.Sprint(unleased) != fmt.Sprint([]uint32{noLease, expired, stale, fenced}) {
		t.Errorf("unleased = %v, want %v", unleased, []uint32{noLease, expired, stale, fenced})
	}

	after := ladder()
	names := []string{"hit", "no_lease", "lease_expired", "version_fence", "fallback"}
	for i, want := range []int64{3, 1, 1, 1, 1} {
		if got := after[i] - ladderBefore[i]; got != want {
			t.Errorf("ladder %s rose by %d, want %d", names[i], got, want)
		}
	}
	if reads, stales := d.Counters(); reads != 3 || stales != 3 {
		t.Errorf("reader counters = (%d reads, %d stale), want (3, 3)", reads, stales)
	}
	// Views served: both hits, the moved user on its second replica, and
	// the fenced user (served, then refused client-side) — in three
	// frames. Refusals: the stale route and replica 0's not-here.
	readsAfter, staleAfter := serverReads()
	if got := readsAfter - readsBefore; got != 4 {
		t.Errorf("servers' DirectReads rose by %d, want 4 (one per view served)", got)
	}
	if got := staleAfter - staleBefore; got != 2 {
		t.Errorf("servers' DirectStale rose by %d, want 2", got)
	}
	for _, u := range []uint32{hitA, hitB, moved} {
		if !hasLease(d, u) {
			t.Errorf("served user %d lost its lease", u)
		}
	}
	for _, u := range []uint32{stale, fenced, expired} {
		if hasLease(d, u) {
			t.Errorf("user %d still leased after its lease failed", u)
		}
	}
}

// hasLease reports whether d caches a currently valid lease for user.
func hasLease(d *DirectReader, user uint32) bool {
	epoch := d.epoch.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.leases[user]
	return ok && e.valid(epoch, time.Now())
}

// observe raises user's client-side version fence to version, as a read
// of that version on any path does.
func observe(d *DirectReader, user uint32, version uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(user)
	e.minVersion = max(e.minVersion, version)
}
