package cluster

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/telemetry"
)

// DirectReader is the client side of the direct-read fast path: a bounded
// cache of broker-granted leases (LRU + TTL) and a pool of multiplexed
// connections to the cache servers the leases name. A hit reads the view
// in one hop, client → cache server, instead of two through the broker;
// anything the fast path cannot prove fresh — no lease, expired lease,
// superseded epoch, fenced placement version, dead server — reports a
// miss, and the caller falls back to the broker path, which is always
// correct. All methods are safe for concurrent use.
type DirectReader struct {
	max int

	// mu guards the lease cache, connection map, and cooldowns. Dials and
	// direct reads always happen outside it.
	mu     sync.Mutex
	leases map[uint32]*leaseEntry
	lru    *list.List // of uint32 user IDs, front = most recently used
	conns  map[string]*Client
	// deadUntil backs off redials of an unreachable server, so a burst of
	// direct reads against a crashed replica costs one dial per cooldown,
	// not one per read.
	deadUntil map[string]time.Time
	closed    bool

	// epoch is the highest membership epoch observed anywhere (lease
	// grants, epoch trailers, stale-route answers). A cached lease minted
	// under a lower epoch is invalid the moment a higher one is seen.
	epoch atomic.Uint64

	reads atomic.Int64 // views served directly
	stale atomic.Int64 // direct attempts that fenced or failed to the broker

	// Per-stage outcome counters for the fast-path decision ladder,
	// exported as dynasore_direct_ladder_total{stage=...}.
	ctrHit     *telemetry.Counter
	ctrNoLease *telemetry.Counter
	ctrExpired *telemetry.Counter
	ctrFence   *telemetry.Counter
	ctrFallbck *telemetry.Counter
}

// leaseEntry is one cached lease plus its client-side fencing state.
type leaseEntry struct {
	lease   Lease
	expires time.Time
	// minVersion is the highest view version observed for this user from
	// any path. A direct read below it is a stale replica racing a
	// migration or write — it fences client-side even when both wire
	// tokens still match.
	minVersion uint64
	elem       *list.Element
}

// redialCooldown is how long a cache server that failed to dial is
// skipped by the fast path before it is tried again.
const redialCooldown = time.Second

// DefaultMaxLeases bounds the lease cache when NewDirectReader is given a
// size <= 0.
const DefaultMaxLeases = 4096

// NewDirectReader returns a DirectReader holding at most maxLeases cached
// leases (DefaultMaxLeases if <= 0).
func NewDirectReader(maxLeases int) *DirectReader {
	if maxLeases <= 0 {
		maxLeases = DefaultMaxLeases
	}
	tel := telemetry.Default()
	const ladder = "dynasore_direct_ladder_total"
	const ladderHelp = "Direct-read fast-path outcomes by ladder stage."
	return &DirectReader{
		max:        maxLeases,
		leases:     make(map[uint32]*leaseEntry),
		lru:        list.New(),
		conns:      make(map[string]*Client),
		deadUntil:  make(map[string]time.Time),
		ctrHit:     tel.Counter(ladder, ladderHelp, "stage", "hit"),
		ctrNoLease: tel.Counter(ladder, ladderHelp, "stage", "no_lease"),
		ctrExpired: tel.Counter(ladder, ladderHelp, "stage", "lease_expired"),
		ctrFence:   tel.Counter(ladder, ladderHelp, "stage", "version_fence"),
		ctrFallbck: tel.Counter(ladder, ladderHelp, "stage", "fallback"),
	}
}

// NoteEpoch records a membership epoch observed on any response path.
// Raising the epoch implicitly invalidates every lease minted below it.
func (d *DirectReader) NoteEpoch(e uint64) {
	for {
		cur := d.epoch.Load()
		if e <= cur || d.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Install caches a freshly granted lease. The user's client-side version
// fence survives re-leasing; only eviction or invalidation clears it.
func (d *DirectReader) Install(l Lease) {
	d.NoteEpoch(l.Epoch)
	if l.TTL <= 0 || len(l.Replicas) == 0 || l.Epoch < d.epoch.Load() {
		return
	}
	expires := time.Now().Add(l.TTL)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	e, ok := d.leases[l.User]
	if !ok {
		e = &leaseEntry{}
		e.elem = d.lru.PushFront(l.User)
		d.leases[l.User] = e
		for len(d.leases) > d.max {
			back := d.lru.Back()
			evict := back.Value.(uint32)
			d.lru.Remove(back)
			delete(d.leases, evict)
		}
	} else {
		d.lru.MoveToFront(e.elem)
	}
	e.lease = l
	e.expires = expires
}

// Observe ratchets user's client-side version fence up to version — fed
// from broker-path reads too, so a later direct read can never hand back
// a view older than one this client already returned.
func (d *DirectReader) Observe(user uint32, version uint64) {
	d.mu.Lock()
	if e, ok := d.leases[user]; ok && version > e.minVersion {
		e.minVersion = version
	}
	d.mu.Unlock()
}

// Invalidate drops user's cached lease (fenced, expired, or refused).
func (d *DirectReader) Invalidate(user uint32) {
	d.mu.Lock()
	if e, ok := d.leases[user]; ok {
		d.lru.Remove(e.elem)
		delete(d.leases, user)
	}
	d.mu.Unlock()
}

// HasLease reports whether a currently valid lease for user is cached —
// when false after a fallback, the caller should re-lease in the
// background.
func (d *DirectReader) HasLease(user uint32) bool {
	e := d.epoch.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	le, ok := d.leases[user]
	return ok && le.lease.Epoch == e && time.Now().Before(le.expires)
}

// TryRead attempts one direct read of user's view. ok is false whenever
// the fast path cannot serve provably fresh data — the caller must then
// read through the broker. Every replica of the lease is tried in order;
// a fencing answer (stale route, or a view older than one already
// observed) invalidates the lease so the next read re-leases.
func (d *DirectReader) TryRead(ctx context.Context, user uint32) (View, bool) {
	epoch := d.epoch.Load()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return View{}, false
	}
	e, ok := d.leases[user]
	if !ok {
		d.mu.Unlock()
		d.ctrNoLease.Inc()
		return View{}, false
	}
	if e.lease.Epoch != epoch || !time.Now().Before(e.expires) {
		d.lru.Remove(e.elem)
		delete(d.leases, user)
		d.mu.Unlock()
		d.stale.Add(1)
		d.ctrExpired.Inc()
		return View{}, false
	}
	d.lru.MoveToFront(e.elem)
	lease := e.lease
	minVersion := e.minVersion
	d.mu.Unlock()

	fenced := false
	for _, r := range lease.Replicas {
		c := d.conn(ctx, r.Addr)
		if c == nil {
			continue
		}
		v, status, err := c.directGet(ctx, user, lease.Epoch, lease.Placement)
		d.NoteEpoch(c.Epoch())
		if err != nil {
			continue // dead or misbehaving server: try the next replica
		}
		switch status {
		case respView:
			if v.Version < minVersion {
				// A replica behind a version this client already saw —
				// the wire tokens raced a move; fence client-side.
				fenced = true
				d.ctrFence.Inc()
				break
			}
			d.Observe(user, v.Version)
			d.reads.Add(1)
			d.ctrHit.Inc()
			return v, true
		case respNotHere:
			continue // the replica moved on; another may still hold it
		}
		// Stale route (or a version regression): this lease is dead.
		break
	}
	d.Invalidate(user)
	d.stale.Add(1)
	if !fenced {
		d.ctrFallbck.Inc()
	}
	return View{}, false
}

// conn returns (dialing if needed) the multiplexed connection to a cache
// server, or nil when the server is in dial cooldown or unreachable. The
// dial happens outside the lock; a racing dial's loser is closed.
func (d *DirectReader) conn(ctx context.Context, addr string) *Client {
	d.mu.Lock()
	c := d.conns[addr]
	if c != nil || d.closed || time.Now().Before(d.deadUntil[addr]) {
		d.mu.Unlock()
		return c
	}
	d.mu.Unlock()

	nc, err := Dial(ctx, addr, DefaultPoolSize)

	d.mu.Lock()
	if err != nil {
		d.deadUntil[addr] = time.Now().Add(redialCooldown)
		d.mu.Unlock()
		return nil
	}
	if cur := d.conns[addr]; cur != nil || d.closed {
		d.mu.Unlock()
		nc.Close()
		return cur
	}
	delete(d.deadUntil, addr)
	d.conns[addr] = nc
	d.mu.Unlock()
	return nc
}

// Counters reports how many views the fast path served directly and how
// many attempts fenced or failed back to the broker.
func (d *DirectReader) Counters() (reads, stale int64) {
	return d.reads.Load(), d.stale.Load()
}

// Close drops every cached lease and closes the cache-server connections.
func (d *DirectReader) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conns := d.conns
	d.conns = make(map[string]*Client)
	d.leases = make(map[uint32]*leaseEntry)
	d.lru.Init()
	d.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}
