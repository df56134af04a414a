package dynasore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
)

// EngineConfig configures an in-process cluster.
type EngineConfig struct {
	// CacheServers is how many cache nodes to start (default 3).
	CacheServers int
	// DataDir holds the broker's write-ahead log. Empty means a temporary
	// directory that is removed on Close (views then survive cache wipes,
	// but not Engine restarts).
	DataDir string
	// ViewCap bounds events kept per view (default 64, at most 65535).
	ViewCap int
	// Placement positions the broker and every cache server in the
	// datacenter tree the placement policy plans over. Nil derives a
	// default layout from Preferred.
	Placement *Placement
	// Preferred is the index of the broker's "rack-local" cache server.
	// When Placement is nil it seeds the default layout: that server
	// shares the broker's rack (so hot views replicate onto it) and every
	// other server sits in a remote zone. -1 means no local server; the
	// default 0 prefers the first server. Values below -1 are invalid.
	Preferred int
	// MaxReplicas bounds a view's replication degree (default 3).
	MaxReplicas int
	// PolicyEvery is the interval of the placement policy's maintenance
	// pass (default 5s).
	PolicyEvery time.Duration
	// Policy tunes the shared placement policy.
	Policy PolicyConfig
	// ServerCapacity bounds how many views the policy places on one cache
	// server (0 = unbounded).
	ServerCapacity int
	// CheckpointEvery enables periodic checkpoints of the persistent
	// store: restarts on the same DataDir load the latest snapshot and
	// replay only the WAL tail. Zero disables them. Pair with a
	// persistent DataDir — a temporary directory is removed on Close.
	CheckpointEvery time.Duration
	// CompactAfter deletes WAL segments once at least this many are fully
	// covered by a checkpoint. Zero keeps every segment.
	CompactAfter int
}

// Engine is the in-process backend of Store: it runs cache servers and a
// broker with a WAL-backed persistent store inside the calling process and
// executes the API against the broker directly, with no client-side network
// hop. Use it for embedding DynaSoRe in another program and for tests; its
// broker also listens on Addr, so network Clients can connect to it.
type Engine struct {
	servers []*cluster.Server
	broker  *cluster.Broker
	tempDir string // owned temp WAL dir, removed on Close; empty otherwise
}

var _ Store = (*Engine)(nil)

// Open starts an in-process cluster.
func Open(cfg EngineConfig) (*Engine, error) {
	n := cfg.CacheServers
	if n <= 0 {
		n = 3
	}
	if cfg.Preferred < -1 || cfg.Preferred >= n {
		return nil, fmt.Errorf("dynasore: preferred server %d out of range (have %d)", cfg.Preferred, n)
	}
	e := &Engine{}
	dataDir := cfg.DataDir
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "dynasore-engine")
		if err != nil {
			return nil, fmt.Errorf("dynasore: temp data dir: %w", err)
		}
		e.tempDir = dir
		dataDir = dir
	}
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := cluster.NewServer("127.0.0.1:0")
		if err != nil {
			e.Close()
			return nil, err
		}
		e.servers = append(e.servers, s)
		addrs = append(addrs, s.Addr())
	}
	broker, err := cluster.NewBroker(cluster.BrokerConfig{
		Addr:            "127.0.0.1:0",
		ServerAddrs:     addrs,
		DataDir:         dataDir,
		ViewCap:         cfg.ViewCap,
		Placement:       cfg.Placement.toCluster(),
		Preferred:       cfg.Preferred,
		MaxReplicas:     cfg.MaxReplicas,
		PolicyEvery:     cfg.PolicyEvery,
		Policy:          cfg.Policy.toCluster(),
		ServerCapacity:  cfg.ServerCapacity,
		CheckpointEvery: cfg.CheckpointEvery,
		CompactAfter:    cfg.CompactAfter,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.broker = broker
	return e, nil
}

// Addr returns the embedded broker's address, so network Clients (local or
// remote) can Dial the same cluster.
func (e *Engine) Addr() string { return e.broker.Addr() }

// Read fetches the views of every user in targets, in order.
func (e *Engine) Read(ctx context.Context, targets []uint32) ([]View, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	views, err := e.broker.Read(targets)
	if err != nil {
		return nil, err
	}
	return fromClusterViews(views), nil
}

// Write appends payload to user's view and returns its sequence number.
func (e *Engine) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.broker.Write(user, payload)
}

// Stats returns a snapshot of the embedded broker's counters, plus the
// cache servers' direct-read activity (views they served straight to
// direct-reading clients, and direct attempts they fenced as stale).
func (e *Engine) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	st := fromClusterStats(e.broker.Stats())
	for _, s := range e.servers {
		ss := s.Stats()
		st.DirectReads += ss.DirectReads
		st.DirectStale += ss.DirectStale
	}
	return st, nil
}

// ReplicaCount returns the current replication degree of user's view.
func (e *Engine) ReplicaCount(user uint32) int { return e.broker.ReplicaCount(user) }

// HomeOf reports the cache-server slot user's view homes on under the
// current membership epoch (rendezvous hashing over the active servers).
func (e *Engine) HomeOf(user uint32) int { return e.broker.HomeOf(user) }

// Epoch returns the engine's current membership epoch.
func (e *Engine) Epoch() uint64 { return e.broker.Epoch() }

// Membership returns the engine's current cache-server set.
func (e *Engine) Membership(ctx context.Context) (Membership, error) {
	if err := ctx.Err(); err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(e.broker.Membership()), nil
}

// AddServer admits a cache server started elsewhere (e.g. with
// ListenCacheServer) into the engine's cluster and returns the new
// membership.
func (e *Engine) AddServer(ctx context.Context, addr string, pos Position, capacity int) (Membership, error) {
	if err := ctx.Err(); err != nil {
		return Membership{}, err
	}
	if _, err := e.broker.AddServer(membership.ServerInfo{
		Addr: addr, Zone: pos.Zone, Rack: pos.Rack, Capacity: capacity,
	}); err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(e.broker.Membership()), nil
}

// DrainServer starts decommissioning the cache server at addr.
func (e *Engine) DrainServer(ctx context.Context, addr string) (Membership, error) {
	if err := ctx.Err(); err != nil {
		return Membership{}, err
	}
	if _, err := e.broker.DrainServer(addr); err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(e.broker.Membership()), nil
}

// RemoveServer retires the cache server at addr from the cluster.
func (e *Engine) RemoveServer(ctx context.Context, addr string) (Membership, error) {
	if err := ctx.Err(); err != nil {
		return Membership{}, err
	}
	if _, err := e.broker.RemoveServer(addr); err != nil {
		return Membership{}, err
	}
	return fromClusterMembership(e.broker.Membership()), nil
}

var _ Admin = (*Engine)(nil)

// NumCacheServers returns how many cache nodes the engine runs.
func (e *Engine) NumCacheServers() int { return len(e.servers) }

// CrashCacheServer stops cache server i without shutting down the cluster,
// simulating a node failure: reads fall back to replicas and the persistent
// store (§3.3).
func (e *Engine) CrashCacheServer(i int) error {
	if i < 0 || i >= len(e.servers) {
		return fmt.Errorf("dynasore: cache server %d out of range", i)
	}
	return e.servers[i].Close()
}

// Close stops the broker, the cache servers, and the persistent store.
func (e *Engine) Close() error {
	var err error
	if e.broker != nil {
		err = e.broker.Close()
		e.broker = nil
	}
	for _, s := range e.servers {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	e.servers = nil
	if e.tempDir != "" {
		if cerr := os.RemoveAll(e.tempDir); err == nil && !errors.Is(cerr, os.ErrNotExist) {
			err = cerr
		}
		e.tempDir = ""
	}
	return err
}
