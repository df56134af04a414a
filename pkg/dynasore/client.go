package dynasore

import (
	"context"
	"sync"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
)

// DialOption customizes Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	poolSize     int
	batchSize    int
	direct       bool
	directLeases int
}

// WithPoolSize sets how many multiplexed connections the client keeps to
// the broker (default cluster.DefaultPoolSize).
func WithPoolSize(n int) DialOption {
	return func(c *dialConfig) { c.poolSize = n }
}

// WithReadBatchSize sets the chunk size above which a multi-user Read is
// split into concurrent batches across the pool (default 256). Zero or
// negative disables splitting.
func WithReadBatchSize(n int) DialOption {
	return func(c *dialConfig) { c.batchSize = n }
}

// WithDirectReads enables the direct-read fast path on clients dialed
// with DialCluster: the client leases hot users' replica sets from the
// broker and reads their views straight from the cache servers — one
// network hop instead of two — falling back to the broker whenever
// freshness cannot be proven (no lease, stale epoch, fenced placement).
// maxLeases bounds the client-side lease cache (<= 0 means
// cluster.DefaultMaxLeases). Dial, the single-broker backend, ignores
// the option.
func WithDirectReads(maxLeases int) DialOption {
	return func(c *dialConfig) {
		c.direct = true
		c.directLeases = maxLeases
	}
}

// Client is the network backend of Store: it speaks the cluster's wire
// protocol to a remote broker, multiplexing concurrent requests over a small connection
// pool, and splits large multi-user reads into concurrent batches.
type Client struct {
	c         *cluster.Client
	batchSize int
}

var _ Store = (*Client)(nil)

// Dial connects to a broker (as started by ListenBroker, Open, or the
// dynasore-node command) and performs the protocol hello.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{batchSize: 256}
	for _, opt := range opts {
		opt(&cfg)
	}
	c, err := cluster.Dial(ctx, addr, cfg.poolSize)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, batchSize: cfg.batchSize}, nil
}

// Read fetches the views of every user in targets, in order. Target lists
// larger than the read batch size are fetched as concurrent chunks and
// reassembled, so one huge feed read does not serialize behind a single
// round trip.
func (c *Client) Read(ctx context.Context, targets []uint32) ([]View, error) {
	if len(targets) == 0 {
		return []View{}, nil
	}
	if c.batchSize <= 0 || len(targets) <= c.batchSize {
		views, err := c.c.Read(ctx, targets)
		if err != nil {
			return nil, err
		}
		return fromClusterViews(views), nil
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
			// cluster.Client.Read guarantees len(views) == end-start on success,
			// so the reassembly below cannot write out of range.
			views, err := c.c.Read(ctx, targets[start:end])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			for i, v := range views {
				out[start+i] = fromClusterView(v)
			}
		}(start, end)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Write appends payload to user's view and returns its sequence number.
func (c *Client) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	return c.c.Write(ctx, user, payload)
}

// Stats returns a snapshot of the broker's counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	st, err := c.c.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return fromClusterStats(st), nil
}

// Epoch returns the highest membership epoch this client has observed in
// broker responses (0 before the first call).
func (c *Client) Epoch() uint64 { return c.c.Epoch() }

// Membership returns the cluster's current cache-server set.
func (c *Client) Membership(ctx context.Context) (Membership, error) {
	info, err := c.c.Membership(ctx)
	if err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(info), nil
}

// AddServer admits a new cache server into the cluster (the broker
// forwards to the leader if needed) and returns the new membership.
func (c *Client) AddServer(ctx context.Context, addr string, pos Position, capacity int) (Membership, error) {
	info, err := c.c.AddServer(ctx, membership.ServerInfo{
		Addr: addr, Zone: pos.Zone, Rack: pos.Rack, Capacity: capacity,
	})
	if err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(info), nil
}

// DrainServer starts decommissioning the cache server at addr.
func (c *Client) DrainServer(ctx context.Context, addr string) (Membership, error) {
	info, err := c.c.DrainServer(ctx, addr)
	if err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(info), nil
}

// RemoveServer retires the cache server at addr from the cluster.
func (c *Client) RemoveServer(ctx context.Context, addr string) (Membership, error) {
	info, err := c.c.RemoveServer(ctx, addr)
	if err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(info), nil
}

var _ Admin = (*Client)(nil)

// Close closes the pooled connections; in-flight requests fail.
func (c *Client) Close() error { return c.c.Close() }
