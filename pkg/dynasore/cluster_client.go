package dynasore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
)

// endpointCooldown is how long a broker endpoint sits out after a
// connection-level failure before the cluster client retries it.
const endpointCooldown = time.Second

// ClusterClient is the multi-endpoint network backend of Store: it talks
// the cluster's wire protocol to every broker of a multi-broker cluster,
// spreading reads round-robin across them, pinning each user's writes to
// a stable broker (the cluster-side write proxy of §3.1, which also keeps
// one broker sequencing each user's events), and failing over to the next
// broker when one dies. Use DialCluster to create one.
type ClusterClient struct {
	endpoints []*endpoint
	next      atomic.Uint64
	batchSize int
	poolSize  int
	closed    atomic.Bool

	// Elastic-membership tracking: the highest epoch seen in any broker
	// response, the cached membership snapshot refreshed when the epoch
	// advances, and a guard so only one refresh runs at a time.
	// refreshMu makes the closed-check-then-Add in noteEpoch atomic with
	// respect to Close, so Close never races the WaitGroup.
	epoch      atomic.Uint64
	memb       atomic.Pointer[Membership]
	refreshing atomic.Bool
	refreshMu  sync.Mutex
	refreshes  sync.WaitGroup

	// Direct-read fast path (nil unless dialed WithDirectReads): the
	// bounded lease cache plus cache-server connections, and a dedup set
	// of users with a background lease request already in flight.
	direct       *cluster.DirectReader
	leaseMu      sync.Mutex
	leasePending map[uint32]struct{}
}

var _ Store = (*ClusterClient)(nil)

// endpoint is one broker address with its lazily dialed client and a
// cooldown after connection failures. The mutex is never held across a
// dial: a slow or blackholed broker must not block the requests that
// round-robin onto this endpoint — they see "dial in progress" and fail
// over to the next broker immediately.
type endpoint struct {
	addr string

	mu        sync.Mutex
	c         *cluster.Client
	dialing   bool
	closed    bool
	downUntil time.Time
}

// DialCluster connects to a multi-broker cluster (brokers started with
// matching BrokerConfig.Peers, or any set of brokers sharing cache servers
// and placement state). At least one broker must be reachable; the rest
// are dialed lazily and retried after failures, so brokers may come and go
// while the client lives. DialOptions apply as in Dial.
func DialCluster(ctx context.Context, addrs []string, opts ...DialOption) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dynasore: DialCluster needs at least one broker address")
	}
	cfg := dialConfig{batchSize: 256}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &ClusterClient{batchSize: cfg.batchSize, poolSize: cfg.poolSize}
	if cfg.direct {
		c.direct = cluster.NewDirectReader(cfg.directLeases)
		c.leasePending = make(map[uint32]struct{})
	}
	for _, addr := range addrs {
		c.endpoints = append(c.endpoints, &endpoint{addr: addr})
	}
	// Eager dials run concurrently: one blackholed broker must not delay
	// connecting to the reachable ones.
	errs := make([]error, len(c.endpoints))
	var wg sync.WaitGroup
	for i, ep := range c.endpoints {
		wg.Add(1)
		go func(i int, ep *endpoint) {
			defer wg.Done()
			_, errs[i] = ep.client(ctx, cfg.poolSize)
		}(i, ep)
	}
	wg.Wait()
	var firstErr error
	ok := false
	for _, err := range errs {
		if err == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if !ok {
		return nil, fmt.Errorf("dynasore: no broker reachable: %w", firstErr)
	}
	return c, nil
}

// client returns the endpoint's connection, dialing it if needed. A broker
// in cooldown after a recent failure, or with a dial already in flight, is
// reported unreachable without blocking — callers fail over instead of
// queueing behind a slow dial.
func (e *endpoint) client(ctx context.Context, poolSize int) (*cluster.Client, error) {
	e.mu.Lock()
	if e.c != nil {
		c := e.c
		e.mu.Unlock()
		return c, nil
	}
	if e.dialing {
		e.mu.Unlock()
		return nil, fmt.Errorf("dynasore: broker %s dial in progress", e.addr)
	}
	if time.Now().Before(e.downUntil) {
		e.mu.Unlock()
		return nil, fmt.Errorf("dynasore: broker %s cooling down after failure", e.addr)
	}
	e.dialing = true
	e.mu.Unlock()

	c, err := cluster.Dial(ctx, e.addr, poolSize)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.dialing = false
	if err != nil {
		e.downUntil = time.Now().Add(endpointCooldown)
		return nil, err
	}
	if e.closed {
		// The cluster client was closed while this dial was in flight.
		c.Close()
		return nil, errors.New("dynasore: cluster client is closed")
	}
	e.c = c
	return c, nil
}

// fail drops the endpoint's connection after a transport error and starts
// its cooldown.
func (e *endpoint) fail() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
	e.downUntil = time.Now().Add(endpointCooldown)
}

// failover reports whether an error means "try the next broker": transport
// and connection errors do, application-level errors relayed by a live
// broker (cluster.ErrRemote) do not.
func failover(err error) bool {
	return err != nil && !errors.Is(err, cluster.ErrRemote)
}

// try runs op against up to len(endpoints) brokers, starting at start and
// failing over on transport errors.
func (c *ClusterClient) try(ctx context.Context, start int, op func(*cluster.Client) error) error {
	if c.closed.Load() {
		return errors.New("dynasore: cluster client is closed")
	}
	var lastErr error
	n := len(c.endpoints)
	for i := 0; i < n; i++ {
		ep := c.endpoints[(start+i)%n]
		cl, err := ep.client(ctx, c.poolSize)
		if err != nil {
			lastErr = err
			continue
		}
		err = op(cl)
		if err == nil {
			return nil
		}
		if !failover(err) || ctx.Err() != nil {
			return err
		}
		ep.fail()
		lastErr = err
	}
	return fmt.Errorf("dynasore: all %d brokers failed: %w", n, lastErr)
}

// readChunk fetches one batch of views through any available broker.
func (c *ClusterClient) readChunk(ctx context.Context, targets []uint32) ([]View, error) {
	var out []View
	start := int(c.next.Add(1)) % len(c.endpoints)
	err := c.try(ctx, start, func(cl *cluster.Client) error {
		views, err := cl.Read(ctx, targets)
		if err != nil {
			return err
		}
		out = fromClusterViews(views)
		c.noteEpoch(cl.Epoch())
		return nil
	})
	return out, err
}

// noteEpoch folds a broker connection's observed membership epoch into
// the client's; a cached snapshot older than the observed epoch triggers
// a background refresh, re-armed by every later response until one
// succeeds — so the client's server table follows the cluster's without
// polling, and a transient refresh failure heals on the next request
// rather than waiting for another membership change.
func (c *ClusterClient) noteEpoch(e uint64) {
	if e == 0 {
		return // pre-membership broker: no epochs on the wire
	}
	if c.direct != nil {
		// A newer epoch implicitly invalidates every direct-read lease
		// minted below it.
		c.direct.NoteEpoch(e)
	}
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if m := c.memb.Load(); m != nil && m.Epoch >= c.epoch.Load() {
		return
	}
	if !c.refreshing.CompareAndSwap(false, true) {
		return
	}
	c.refreshMu.Lock()
	if c.closed.Load() {
		c.refreshMu.Unlock()
		c.refreshing.Store(false)
		return
	}
	c.refreshes.Add(1)
	c.refreshMu.Unlock()
	go func() {
		defer c.refreshes.Done()
		defer c.refreshing.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Membership itself installs the result under the epoch guard, so
		// a reply from a lagging broker can never regress the cache.
		_, _ = c.Membership(ctx)
	}()
}

// leaseAsync requests a direct-read lease for user in the background,
// unless a valid lease is already cached or a request is already in
// flight. Lease traffic therefore stays bounded by the miss rate: one
// outstanding request per missing user, not one per read.
func (c *ClusterClient) leaseAsync(user uint32) {
	if c.direct.HasLease(user) {
		return
	}
	c.leaseMu.Lock()
	if _, busy := c.leasePending[user]; busy {
		c.leaseMu.Unlock()
		return
	}
	c.leasePending[user] = struct{}{}
	c.leaseMu.Unlock()
	// Same barrier as noteEpoch: the closed-check-then-Add must not race
	// Close's WaitGroup.
	c.refreshMu.Lock()
	if c.closed.Load() {
		c.refreshMu.Unlock()
		c.leaseMu.Lock()
		delete(c.leasePending, user)
		c.leaseMu.Unlock()
		return
	}
	c.refreshes.Add(1)
	c.refreshMu.Unlock()
	go func() {
		defer c.refreshes.Done()
		defer func() {
			c.leaseMu.Lock()
			delete(c.leasePending, user)
			c.leaseMu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := int(c.next.Add(1)) % len(c.endpoints)
		// Failure is harmless: reads keep working through the broker, and
		// the next miss re-arms the request.
		_ = c.try(ctx, start, func(cl *cluster.Client) error {
			l, err := cl.Lease(ctx, user)
			if err != nil {
				return err
			}
			c.noteEpoch(cl.Epoch())
			c.direct.Install(l)
			return nil
		})
	}()
}

// CachedMembership returns the most recent membership snapshot the client
// auto-refreshed after noticing a newer epoch in a response, or ok ==
// false before the first refresh completes. Use Membership for an
// explicit round trip.
func (c *ClusterClient) CachedMembership() (Membership, bool) {
	if m := c.memb.Load(); m != nil {
		return *m, true
	}
	return Membership{}, false
}

// Epoch returns the highest membership epoch this client has observed in
// broker responses.
func (c *ClusterClient) Epoch() uint64 { return c.epoch.Load() }

// Membership fetches the current cache-server set through any reachable
// broker and updates the cached snapshot.
func (c *ClusterClient) Membership(ctx context.Context) (Membership, error) {
	var out Membership
	start := int(c.next.Add(1)) % len(c.endpoints)
	err := c.try(ctx, start, func(cl *cluster.Client) error {
		info, err := cl.Membership(ctx)
		if err != nil {
			return err
		}
		out = fromClusterMembership(info)
		return nil
	})
	if err == nil {
		if cur := c.memb.Load(); cur == nil || out.Epoch > cur.Epoch {
			c.memb.Store(&out)
		}
	}
	return out, err
}

// AddServer admits a new cache server into the cluster through any
// reachable broker (forwarded to the leader) and returns the new
// membership.
func (c *ClusterClient) AddServer(ctx context.Context, addr string, pos Position, capacity int) (Membership, error) {
	return c.adminOp(ctx, func(cl *cluster.Client) (cluster.MembershipInfo, error) {
		return cl.AddServer(ctx, membership.ServerInfo{
			Addr: addr, Zone: pos.Zone, Rack: pos.Rack, Capacity: capacity,
		})
	})
}

// DrainServer starts decommissioning the cache server at addr.
func (c *ClusterClient) DrainServer(ctx context.Context, addr string) (Membership, error) {
	return c.adminOp(ctx, func(cl *cluster.Client) (cluster.MembershipInfo, error) {
		return cl.DrainServer(ctx, addr)
	})
}

// RemoveServer retires the cache server at addr from the cluster.
func (c *ClusterClient) RemoveServer(ctx context.Context, addr string) (Membership, error) {
	return c.adminOp(ctx, func(cl *cluster.Client) (cluster.MembershipInfo, error) {
		return cl.RemoveServer(ctx, addr)
	})
}

var _ Admin = (*ClusterClient)(nil)

func (c *ClusterClient) adminOp(ctx context.Context, op func(*cluster.Client) (cluster.MembershipInfo, error)) (Membership, error) {
	var out Membership
	start := int(c.next.Add(1)) % len(c.endpoints)
	err := c.try(ctx, start, func(cl *cluster.Client) error {
		info, err := op(cl)
		if err != nil {
			return err
		}
		out = fromClusterMembership(info)
		return nil
	})
	if err == nil {
		if cur := c.memb.Load(); cur == nil || out.Epoch > cur.Epoch {
			c.memb.Store(&out)
		}
	}
	return out, err
}

// Read fetches the views of every user in targets, in order. Each call is
// served by the next broker round-robin; target lists larger than the read
// batch size are split into concurrent chunks, so one big feed read spreads
// across the whole broker tier. With WithDirectReads, each target is first
// tried against its leased cache servers — one hop — and only the misses
// go through a broker; users that missed get a lease requested in the
// background so the next read of them can go direct.
func (c *ClusterClient) Read(ctx context.Context, targets []uint32) ([]View, error) {
	if len(targets) == 0 {
		return []View{}, nil
	}
	if c.direct == nil {
		return c.brokerRead(ctx, targets)
	}
	out := make([]View, len(targets))
	var missIdx []int
	var missTargets []uint32
	for i, u := range targets {
		if v, ok := c.direct.TryRead(ctx, u); ok {
			out[i] = fromClusterView(v)
			continue
		}
		missIdx = append(missIdx, i)
		missTargets = append(missTargets, u)
	}
	if len(missTargets) == 0 {
		return out, nil
	}
	views, err := c.brokerRead(ctx, missTargets)
	if err != nil {
		return nil, err
	}
	for j, v := range views {
		out[missIdx[j]] = v
		// Feed the broker-served version into the client-side fence, and
		// re-lease the user in the background if no valid lease remains.
		c.direct.Observe(missTargets[j], v.Version)
		c.leaseAsync(missTargets[j])
	}
	return out, nil
}

// brokerRead is the broker-proxied read path: round-robin chunked reads
// across the broker tier.
func (c *ClusterClient) brokerRead(ctx context.Context, targets []uint32) ([]View, error) {
	if c.batchSize <= 0 || len(targets) <= c.batchSize {
		return c.readChunk(ctx, targets)
	}
	out := make([]View, len(targets))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for start := 0; start < len(targets); start += c.batchSize {
		end := min(start+c.batchSize, len(targets))
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			views, err := c.readChunk(ctx, targets[start:end])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			copy(out[start:end], views)
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Write appends payload to user's view and returns its sequence number.
// Writes for one user prefer one stable broker (hash affinity), so that
// broker sequences the user's events in its WAL; on its death the write
// fails over to the next broker.
func (c *ClusterClient) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	var seq uint64
	start := int(user*2654435761>>16) % len(c.endpoints)
	err := c.try(ctx, start, func(cl *cluster.Client) error {
		var err error
		seq, err = cl.Write(ctx, user, payload)
		if err == nil {
			c.noteEpoch(cl.Epoch())
		}
		return err
	})
	return seq, err
}

// BrokerStats attributes one broker's counters to the address they came
// from — the per-broker breakdown behind the cluster-wide Stats sum.
type BrokerStats struct {
	// Addr is the broker endpoint the counters were fetched from.
	Addr string
	// Stats holds that single broker's counters (DirectReads and
	// DirectStale are always zero here: the fast path is client-side
	// state, not any one broker's).
	Stats Stats
}

// StatsPerBroker fetches each reachable broker's counters individually,
// in endpoint order, attributing every count to the broker that
// reported it instead of folding the tier into one sum. Unreachable
// brokers are skipped; it fails only when no broker responds.
func (c *ClusterClient) StatsPerBroker(ctx context.Context) ([]BrokerStats, error) {
	if c.closed.Load() {
		return nil, errors.New("dynasore: cluster client is closed")
	}
	var out []BrokerStats
	var lastErr error
	for _, ep := range c.endpoints {
		cl, err := ep.client(ctx, c.poolSize)
		if err != nil {
			lastErr = err
			continue
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			if failover(err) {
				ep.fail()
			}
			lastErr = err
			continue
		}
		out = append(out, BrokerStats{Addr: ep.addr, Stats: fromClusterStats(st)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dynasore: no broker answered stats: %w", lastErr)
	}
	return out, nil
}

// Stats sums the counters of every reachable broker — cluster-wide
// activity rather than one broker's. It fails only when no broker
// responds. Use StatsPerBroker when the per-broker attribution matters.
func (c *ClusterClient) Stats(ctx context.Context) (Stats, error) {
	per, err := c.StatsPerBroker(ctx)
	if err != nil {
		return Stats{}, err
	}
	var sum Stats
	for _, bs := range per {
		st := bs.Stats
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Replicated += st.Replicated
		sum.Evicted += st.Evicted
		sum.Migrated += st.Migrated
		sum.Misses += st.Misses
		sum.Checkpoints += st.Checkpoints
		sum.CompactedSegments += st.CompactedSegments
		sum.CatchupRecords += st.CatchupRecords
		sum.LeaseGrants += st.LeaseGrants
		if st.Epoch > sum.Epoch {
			sum.Epoch = st.Epoch
		}
	}
	if c.direct != nil {
		// This client's own fast-path activity: views served without the
		// broker, and attempts that fenced or failed back to it.
		sum.DirectReads, sum.DirectStale = c.direct.Counters()
	}
	return sum, nil
}

// Close closes every broker connection; in-flight requests fail.
func (c *ClusterClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	// Barrier against noteEpoch's closed-check-then-Add: once this lock
	// is acquired, no further refresh can be registered.
	c.refreshMu.Lock()
	c.refreshMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	for _, ep := range c.endpoints {
		ep.mu.Lock()
		ep.closed = true
		if ep.c != nil {
			ep.c.Close()
			ep.c = nil
		}
		ep.mu.Unlock()
	}
	c.refreshes.Wait()
	if c.direct != nil {
		c.direct.Close()
	}
	return nil
}
