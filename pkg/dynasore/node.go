package dynasore

import (
	"net"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/wal"
)

// PersistentStore is the WAL-backed durable view store brokers write
// through (§3.3). Open one explicitly only to share it between several
// in-process brokers of a multi-broker cluster; a standalone broker opens
// its own from BrokerConfig.DataDir.
type PersistentStore struct {
	vs *wal.ViewStore
}

// OpenStore opens (or recovers) a persistent store in dir, keeping up to
// viewCap events per user view (default 64).
func OpenStore(dir string, viewCap int) (*PersistentStore, error) {
	vs, err := wal.OpenViewStore(dir, viewCap, wal.Options{})
	if err != nil {
		return nil, err
	}
	return &PersistentStore{vs: vs}, nil
}

// Users returns the number of users with at least one durable event.
func (s *PersistentStore) Users() int { return s.vs.Users() }

// Close closes the underlying write-ahead log. Close the brokers sharing
// the store first.
func (s *PersistentStore) Close() error { return s.vs.Close() }

// BrokerPeer identifies one broker of a multi-broker cluster: the address
// its peers dial it on and its position in the datacenter tree — the
// paper's broker-per-front-end-cluster anchoring.
type BrokerPeer struct {
	Addr string
	Pos  Position
}

// CacheServer is one standalone in-memory cache node, holding view replicas
// for brokers. Views live only in memory — durability is the broker's
// persistent store's job.
type CacheServer struct {
	s *cluster.Server
}

// ListenCacheServer starts a cache server on addr ("127.0.0.1:0" picks an
// ephemeral port).
func ListenCacheServer(addr string) (*CacheServer, error) {
	s, err := cluster.NewServer(addr)
	if err != nil {
		return nil, err
	}
	return &CacheServer{s: s}, nil
}

// Addr returns the server's listen address.
func (s *CacheServer) Addr() string { return s.s.Addr() }

// NumViews returns how many views the server currently holds.
func (s *CacheServer) NumViews() int { return s.s.NumViews() }

// Close stops the server and drops every open connection.
func (s *CacheServer) Close() error { return s.s.Close() }

// BrokerConfig configures a standalone broker node.
type BrokerConfig struct {
	// Addr is the client-facing listen address ("127.0.0.1:0" for tests).
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr — so an
	// embedding process can reserve the ports of a whole broker cluster
	// (and build its Peers list) before starting any of its brokers.
	Listener net.Listener
	// CacheServerAddrs lists the cache servers, in a fixed cluster-wide
	// order.
	CacheServerAddrs []string
	// DataDir holds the write-ahead log of the persistent store.
	DataDir string
	// ViewCap bounds events kept per view (default 64).
	ViewCap int
	// Placement positions the broker and every cache server in the
	// datacenter tree the placement policy plans over. Nil derives a
	// default layout from Preferred.
	Placement *Placement
	// Preferred is the index of the broker's "rack-local" cache server.
	// When Placement is nil it seeds the default layout: that server
	// shares the broker's rack and every other server sits in a remote
	// zone. -1 disables preference; values below -1 are invalid.
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
	// Peers lists every broker of a multi-broker cluster — including this
	// one — in a fixed cluster-wide order shared by all brokers; Peers[Self]
	// describes this broker. Empty means a single-broker cluster. The
	// brokers keep their placement tables converged over a peer-sync
	// protocol and elect the smallest-position peer to run the placement
	// policy over the whole cluster's traffic.
	Peers []BrokerPeer
	// Self is this broker's index in Peers.
	Self int
	// SyncEvery is the interval of the peer-sync pass (default 1s).
	SyncEvery time.Duration
	// Store, when non-nil, is a shared in-process persistent store used
	// instead of DataDir; the broker does not close it. Without it, each
	// broker of a multi-broker cluster keeps its own WAL and writes are
	// replicated between the logs.
	Store *PersistentStore
	// CheckpointEvery enables the durability/recovery subsystem: the
	// broker periodically snapshots its persistent store to an atomic
	// checkpoint file in DataDir (plus a parting snapshot on Close), and
	// restarts load the snapshot and replay only the WAL tail. Zero
	// disables periodic checkpoints. Ignored when Store is set — a shared
	// store is its owner's to checkpoint.
	CheckpointEvery time.Duration
	// CompactAfter enables WAL compaction: after a checkpoint, if at
	// least this many whole WAL segments are fully covered by it, they
	// are deleted. Zero keeps every segment.
	CompactAfter int
	// WALSyncEvery is the WAL's group-commit cadence: fsync after every
	// WALSyncEvery-th append (and always on segment rotation and Close).
	// Zero keeps the prototype default of trusting the OS page cache.
	// Ignored when Store is set — a shared store's durability knobs are
	// fixed when it is opened.
	WALSyncEvery int
}

// Broker is one standalone broker node: it serves the Read/Write API to
// network clients, persists writes to its WAL, and drives replica placement
// across its cache servers with the shared DynaSoRe policy (§3). In a
// multi-broker cluster (Peers) it additionally pings its peers, takes part
// in leader election, and keeps its placement table synced.
type Broker struct {
	b *cluster.Broker
}

// ListenBroker starts a broker node.
func ListenBroker(cfg BrokerConfig) (*Broker, error) {
	var store *wal.ViewStore
	if cfg.Store != nil {
		store = cfg.Store.vs
	}
	peers := make([]cluster.PeerInfo, len(cfg.Peers))
	for i, p := range cfg.Peers {
		peers[i] = cluster.PeerInfo{Addr: p.Addr, Pos: cluster.Position(p.Pos)}
	}
	b, err := cluster.NewBroker(cluster.BrokerConfig{
		Addr:            cfg.Addr,
		Listener:        cfg.Listener,
		ServerAddrs:     cfg.CacheServerAddrs,
		DataDir:         cfg.DataDir,
		ViewCap:         cfg.ViewCap,
		Placement:       cfg.Placement.toCluster(),
		Preferred:       cfg.Preferred,
		MaxReplicas:     cfg.MaxReplicas,
		PolicyEvery:     cfg.PolicyEvery,
		Policy:          cfg.Policy.toCluster(),
		ServerCapacity:  cfg.ServerCapacity,
		Peers:           peers,
		Self:            cfg.Self,
		SyncEvery:       cfg.SyncEvery,
		Store:           store,
		CheckpointEvery: cfg.CheckpointEvery,
		CompactAfter:    cfg.CompactAfter,
		WALSyncEvery:    cfg.WALSyncEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Broker{b: b}, nil
}

// Addr returns the broker's client-facing address.
func (b *Broker) Addr() string { return b.b.Addr() }

// ReplicaCount returns the current replication degree of user's view.
func (b *Broker) ReplicaCount(user uint32) int { return b.b.ReplicaCount(user) }

// ReplicaSet returns the cache-server indices currently holding user's
// view (home first), as observed by this broker. In a converged
// multi-broker cluster every broker returns the same set.
func (b *Broker) ReplicaSet(user uint32) []int { return b.b.ReplicaSet(user) }

// HomeOf reports the cache-server slot user's view homes on under the
// broker's current membership epoch (rendezvous hashing over the active
// servers — identical on every broker of the cluster).
func (b *Broker) HomeOf(user uint32) int { return b.b.HomeOf(user) }

// Epoch returns the broker's current membership epoch.
func (b *Broker) Epoch() uint64 { return b.b.Epoch() }

// Membership returns the broker's current view of the cluster's
// cache-server set, with per-slot replica counts.
func (b *Broker) Membership() Membership { return fromClusterMembership(b.b.Membership()) }

// IsLeader reports whether this broker currently runs the placement policy
// for its cluster. A single-broker cluster is always its own leader.
func (b *Broker) IsLeader() bool { return b.b.IsLeader() }

// Recovery reports how the broker's persistent store came up: whether a
// checkpoint seeded it, and how many WAL records were replayed on top (the
// whole log when no usable checkpoint existed).
func (b *Broker) Recovery() (fromCheckpoint bool, replayed int) { return b.b.Recovery() }

// Leader returns the index (in BrokerConfig.Peers) of the broker this node
// currently considers the placement-policy leader.
func (b *Broker) Leader() int { return b.b.Leader() }

// Stats returns a snapshot of this broker's own counters (one node's,
// not cluster-summed — compare ClusterClient.Stats).
func (b *Broker) Stats() Stats { return fromClusterStats(b.b.Stats()) }

// Close stops the broker, its server and peer connections, and — unless it
// was handed a shared Store — the persistent store.
func (b *Broker) Close() error { return b.b.Close() }
