package cluster

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/telemetry"
)

// DirectReader is the client side of the direct-read fast path: a bounded
// cache of broker-granted leases (LRU + TTL) and a pool of multiplexed
// connections to the cache servers the leases name. A hit reads the view
// in one hop, client → cache server, instead of two through the broker;
// any view the fast path cannot prove fresh — no lease, expired lease,
// superseded epoch, fenced placement version, dead server — ReadMany
// reads through the broker path it is given, which is always correct.
// All methods are safe for concurrent use.
type DirectReader struct {
	max int

	// mu guards the lease cache and the connection map. Clients are made
	// under it — they dial lazily, on their first request — and dials and
	// direct reads always happen outside it.
	mu     sync.Mutex
	leases map[uint32]*leaseEntry
	lru    *list.List // of uint32 user IDs, front = most recently used
	conns  map[string]*Client
	closed bool

	// epoch is the highest membership epoch observed anywhere (lease
	// grants, broker responses, direct-read epoch trailers). A cached lease minted
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

// leaseEntry is one user's client-side state: its cached lease, if any,
// and its version fence. The entry outlives the lease — a dropped,
// expired or superseded lease leaves the fence in place — so only LRU
// eviction forgets a version this client returned.
type leaseEntry struct {
	lease   Lease
	expires time.Time // zero when no lease is held
	// minVersion is the highest view version observed for this user from
	// any path. A direct read below it is a stale replica racing a
	// migration or write — it fences client-side even when both wire
	// tokens still match.
	minVersion uint64
	elem       *list.Element
}

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
// fence survives re-leasing; only eviction clears it.
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
	e := d.entryLocked(l.User)
	e.lease = l
	e.expires = expires
}

// entryLocked returns user's entry, most recently used, creating it (and
// evicting the least recently used past the bound) when there is none.
// d.mu must be held.
func (d *DirectReader) entryLocked(user uint32) *leaseEntry {
	if e, ok := d.leases[user]; ok {
		d.lru.MoveToFront(e.elem)
		return e
	}
	e := &leaseEntry{elem: d.lru.PushFront(user)}
	d.leases[user] = e
	for len(d.leases) > d.max {
		back := d.lru.Back()
		d.lru.Remove(back)
		delete(d.leases, back.Value.(uint32))
	}
	return e
}

// valid reports whether the entry holds a lease minted under epoch and
// unexpired at now.
func (e *leaseEntry) valid(epoch uint64, now time.Time) bool {
	return e.lease.Epoch == epoch && now.Before(e.expires)
}

// drop forgets the entry's lease and keeps its version fence.
func (e *leaseEntry) drop() {
	e.lease = Lease{}
	e.expires = time.Time{}
}

// BrokerRead reads users' views, in order, through the always-correct
// broker path.
type BrokerRead func(ctx context.Context, users []uint32) ([]View, error)

// directTarget is one leased target of a ReadMany: its position in the
// target list, the lease it is read under, and its client-side version
// fence at the time of the read.
type directTarget struct {
	idx        int
	user       uint32
	lease      Lease
	minVersion uint64
}

// directBatch is one frame's worth of a ReadMany round: the targets sent
// to one cache server and its answers.
type directBatch struct {
	addr    string
	targets []directTarget
	answers []directAnswer // nil when the server was unreachable or failed
}

// ReadMany reads the views of targets, in order — the paper's Read(u, L)
// on the fast path. Users with a valid lease are read straight from their
// cache servers in rounds: round k sends every still-unanswered leased
// user to its lease's k-th replica, one frame per server, all servers in
// parallel. Users with no valid lease go to broker at once, concurrently
// with round 0, and users the rounds could not serve — fenced, refused,
// or out of replicas — go to it after the last round. Every fence keeps
// per-user semantics: the epoch and placement tokens on the server, the
// client-side version fence here, and a stale route invalidates the
// user's lease.
//
// unleased lists the users broker served that now hold no valid lease;
// the caller should lease them in the background so their next read can
// go direct.
func (d *DirectReader) ReadMany(ctx context.Context, targets []uint32, broker BrokerRead) (views []View, unleased []uint32, err error) {
	views = make([]View, len(targets))
	leased, cold := d.classify(targets)
	var coldErr error
	var wg sync.WaitGroup
	if len(cold) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coldErr = readVia(ctx, broker, targets, cold, views)
		}()
	}
	missed := d.rounds(ctx, leased, views)
	var missErr error
	if len(missed) > 0 {
		missErr = readVia(ctx, broker, targets, missed, views)
	}
	wg.Wait()
	for _, err := range []error{coldErr, missErr} {
		if err != nil {
			return nil, nil, err
		}
	}
	if len(cold)+len(missed) == 0 {
		return views, nil, nil
	}
	// Feed the broker-served versions into the client-side fence — the
	// lease these users get next may name a replica behind them — and
	// report the users left without a valid lease.
	epoch := d.epoch.Load()
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return views, nil, nil
	}
	for _, served := range [][]int{cold, missed} {
		for _, i := range served {
			u := targets[i]
			e := d.entryLocked(u)
			e.minVersion = max(e.minVersion, views[i].Version)
			if !e.valid(epoch, now) {
				unleased = append(unleased, u)
			}
		}
	}
	return views, unleased, nil
}

// readVia reads the targets at positions idx through broker into views.
func readVia(ctx context.Context, broker BrokerRead, targets []uint32, idx []int, views []View) error {
	users := make([]uint32, len(idx))
	for j, i := range idx {
		users[j] = targets[i]
	}
	got, err := broker(ctx, users)
	if err != nil {
		return err
	}
	if len(got) != len(users) {
		return fmt.Errorf("%w: broker returned %d views for %d users", ErrBadFrame, len(got), len(users))
	}
	for j, i := range idx {
		views[i] = got[j]
	}
	return nil
}

// classify splits targets into the leased ones, with a snapshot of their
// leases and fences, and the positions of those with no valid lease
// (expired or superseded leases are dropped here).
func (d *DirectReader) classify(targets []uint32) (leased []directTarget, cold []int) {
	epoch := d.epoch.Load()
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		cold = make([]int, len(targets))
		for i := range cold {
			cold[i] = i
		}
		return nil, cold
	}
	leased = make([]directTarget, 0, len(targets))
	for i, u := range targets {
		e, ok := d.leases[u]
		if !ok || e.expires.IsZero() {
			d.ctrNoLease.Inc()
			cold = append(cold, i)
			continue
		}
		if !e.valid(epoch, now) {
			e.drop()
			d.stale.Add(1)
			d.ctrExpired.Inc()
			cold = append(cold, i)
			continue
		}
		d.lru.MoveToFront(e.elem)
		leased = append(leased, directTarget{idx: i, user: u, lease: e.lease, minVersion: e.minVersion})
	}
	return leased, cold
}

// rounds serves the leased targets from their replicas into views and
// returns the positions it could not serve.
func (d *DirectReader) rounds(ctx context.Context, pending []directTarget, views []View) (missed []int) {
	for k := 0; len(pending) > 0; k++ {
		var batches []directBatch
		var exhausted []directTarget
		for _, t := range pending {
			if k >= len(t.lease.Replicas) {
				exhausted = append(exhausted, t)
				continue
			}
			addr := t.lease.Replicas[k].Addr
			b := -1
			for i := range batches {
				if batches[i].addr == addr && len(batches[i].targets) < MaxBatch {
					b = i
					break
				}
			}
			if b < 0 {
				b = len(batches)
				batches = append(batches, directBatch{addr: addr})
			}
			batches[b].targets = append(batches[b].targets, t)
		}
		var wg sync.WaitGroup
		for i := range batches {
			wg.Add(1)
			go func(b *directBatch) {
				defer wg.Done()
				d.send(ctx, b)
			}(&batches[i])
		}
		wg.Wait()

		var next []directTarget
		d.mu.Lock()
		for _, t := range exhausted {
			// Every replica was dead or no longer held the view.
			d.dropLocked(t.user)
			d.ctrFallbck.Inc()
			missed = append(missed, t.idx)
		}
		for _, b := range batches {
			if b.answers == nil {
				// Dead or misbehaving server: try the next replica.
				next = append(next, b.targets...)
				continue
			}
			for j, t := range b.targets {
				switch a := b.answers[j]; a.status {
				case respView:
					if a.view.Version < t.minVersion {
						// A replica behind a version this client already
						// saw — the wire tokens raced a move; fence
						// client-side.
						d.dropLocked(t.user)
						d.ctrFence.Inc()
						missed = append(missed, t.idx)
						continue
					}
					if e, ok := d.leases[t.user]; ok {
						e.minVersion = max(e.minVersion, a.view.Version)
					}
					views[t.idx] = a.view
					d.reads.Add(1)
					d.ctrHit.Inc()
				case respNotHere:
					next = append(next, t) // the replica moved on; another may still hold it
				default:
					// Stale route: this lease is dead.
					d.dropLocked(t.user)
					d.ctrFallbck.Inc()
					missed = append(missed, t.idx)
				}
			}
		}
		d.mu.Unlock()
		pending = next
	}
	return missed
}

// send performs one batch's direct read, leaving b.answers nil when the
// server cannot be reached or fails the request.
func (d *DirectReader) send(ctx context.Context, b *directBatch) {
	c := d.conn(b.addr)
	if c == nil {
		return
	}
	reqs := make([]directGetReq, len(b.targets))
	for i, t := range b.targets {
		reqs[i] = directGetReq{user: t.user, epoch: t.lease.Epoch, placement: t.lease.Placement}
	}
	answers, err := c.directGet(ctx, reqs)
	d.NoteEpoch(c.Epoch())
	if err == nil {
		b.answers = answers
	}
}

// dropLocked invalidates user's lease after a direct read it could not
// serve, keeping its version fence, and counts the fallback. d.mu must be
// held.
func (d *DirectReader) dropLocked(user uint32) {
	if e, ok := d.leases[user]; ok {
		e.drop()
	}
	d.stale.Add(1)
}

// conn returns the multiplexed connection to a cache server, making it
// (undialed) on first use, or nil when the server failed less than a link
// cooldown ago — a burst of direct reads against a crashed replica costs
// one dial per cooldown and pooled connection, not one per read, and its
// users go to the broker meanwhile. A dial still in flight is awaited by
// the read that uses the connection.
func (d *DirectReader) conn(addr string) *Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	c := d.conns[addr]
	if c == nil {
		c = newClient(addr, DefaultPoolSize, telemetry.Default())
		d.conns[addr] = c
	}
	if c.cooling() {
		return nil
	}
	return c
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
