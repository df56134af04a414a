package dynasore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"dynasore/internal/cluster"
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
	// datacenter tree the placement policy plans over. Nil means the
	// default layout: cache server 0 shares the broker's rack (so hot views
	// replicate onto it) and every other server sits in its own rack of a
	// remote zone.
	Placement *Placement
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

// Engine is a whole deployment inside the calling process: cache servers
// and a broker with a WAL-backed persistent store, served through the
// network client. The embedded ClusterClient, dialed to the broker's Addr,
// provides the Store and Admin API, so an Engine behaves exactly like a
// remote one-broker cluster. Use it for embedding DynaSoRe in another
// program and for tests; other network clients can Dial Addr as well.
type Engine struct {
	*ClusterClient
	servers []*cluster.Server
	broker  *cluster.Broker
	tempDir string // owned temp WAL dir, removed on Close; empty otherwise
}

var (
	_ Store = (*Engine)(nil)
	_ Admin = (*Engine)(nil)
)

// Open starts an in-process cluster and connects a client to its broker.
func Open(cfg EngineConfig) (*Engine, error) {
	n := cfg.CacheServers
	if n <= 0 {
		n = 3
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
		Placement:       cfg.Placement,
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
	e.ClusterClient, err = Dial(context.Background(), broker.Addr())
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Addr returns the embedded broker's address, so network Clients (local or
// remote) can Dial the same cluster.
func (e *Engine) Addr() string { return e.broker.Addr() }

// ReplicaCount returns the current replication degree of user's view.
func (e *Engine) ReplicaCount(user uint32) int { return e.broker.ReplicaCount(user) }

// HomeOf reports the cache-server slot user's view homes on under the
// current membership epoch (rendezvous hashing over the active servers).
func (e *Engine) HomeOf(user uint32) int { return e.broker.HomeOf(user) }

// Epoch returns the broker's current membership epoch.
func (e *Engine) Epoch() uint64 { return e.broker.Epoch() }

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

// Close closes the client, then stops the broker, the cache servers, and
// the persistent store.
func (e *Engine) Close() error {
	var err error
	if e.ClusterClient != nil {
		err = e.ClusterClient.Close()
	}
	if e.broker != nil {
		if cerr := e.broker.Close(); err == nil {
			err = cerr
		}
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
