package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/checkpoint"
	"dynasore/internal/membership"
	"dynasore/internal/stats"
	"dynasore/internal/telemetry"
	"dynasore/internal/topology"
	"dynasore/internal/viewpolicy"
	"dynasore/internal/wal"
)

// Position places a node in the datacenter tree: a zone (intermediate
// switch) and a rack within that zone. Nodes sharing the same position hang
// off the same rack switch.
type Position struct {
	Zone int
	Rack int
}

// Placement describes where the broker and each cache server sit in the
// datacenter tree; the shared placement policy uses it to score replica
// locations by network distance.
type Placement struct {
	Broker Position
	// Servers[i] is the position of ServerAddrs[i].
	Servers []Position
}

// PeerInfo identifies one broker of a multi-broker cluster: the address its
// peers dial it on and its position in the datacenter tree. The paper
// places one broker in every front-end cluster; Pos is that anchoring.
type PeerInfo struct {
	Addr string
	Pos  Position
}

// BrokerConfig configures a broker node.
type BrokerConfig struct {
	// Addr is the client-facing listen address ("127.0.0.1:0" for tests).
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr — so a
	// test or embedding process can reserve the ports of a whole broker
	// cluster before starting any of its brokers.
	Listener net.Listener
	// ServerAddrs lists the cache servers, in a fixed cluster-wide order
	// shared by every broker of the cluster. It seeds epoch 1 of the
	// elastic membership view; later epochs (servers added, drained, or
	// removed through the Admin API) are recovered from the WAL and
	// override the seed on restart.
	ServerAddrs []string
	// Peers lists every broker of the cluster — including this one — in a
	// fixed cluster-wide order shared by all brokers; Peers[Self] describes
	// this broker and its Pos overrides Placement.Broker. Empty means a
	// single-broker cluster. Brokers probe each other with a WAL cursor
	// exchange (which also pulls missed log records), elect the
	// smallest-position peer as the placement-policy leader, and keep their
	// replica-set tables converged through batch pushes and periodic
	// anti-entropy pulls.
	Peers []PeerInfo
	// Self is this broker's index in Peers.
	Self int
	// SyncEvery is the interval of the peer-sync pass: cursor-exchange
	// probes (liveness and WAL catch-up), leader election, access-report
	// push, and anti-entropy pulls (default 1s).
	SyncEvery time.Duration
	// DataDir holds the write-ahead log of the broker's persistent store.
	// In a multi-broker cluster every write is also replicated to the
	// peers' logs, so all stores converge on the same per-user history.
	DataDir string
	// ViewCap bounds events kept per view (default 64, at most 65535: a
	// view's event count is a uint16 on the wire).
	ViewCap int
	// Placement positions the broker and every cache server in the
	// datacenter tree. Nil means the default layout: server 0 shares the
	// broker's rack and every other server sits in its own rack of a
	// remote zone, so the policy concentrates hot views on server 0.
	Placement *Placement
	// PolicyEvery is the interval of the maintenance pass — utility
	// recomputation, negative-utility eviction, admission-threshold
	// refresh (default 5s; the live-system analogue of the paper's hourly
	// pass, shortened for a prototype).
	PolicyEvery time.Duration
	// Policy tunes the shared placement engine. Unset fields assume
	// live-cluster defaults: 8 rotating slots of 1s, no grace period, and
	// an admission profit floor tuned so a handful of reads inside the
	// window replicates a view.
	Policy viewpolicy.Config
	// ServerCapacity bounds how many views the policy will place on one
	// cache server (0 = unbounded).
	ServerCapacity int
	// CheckpointEvery enables the durability/recovery subsystem: the
	// broker periodically snapshots its persistent store (views, versions,
	// per-origin catch-up cursors) to an atomic checkpoint file in
	// DataDir, restarts load the checkpoint and replay only the WAL tail,
	// and a final checkpoint is taken on Close. Zero disables periodic
	// checkpoints.
	CheckpointEvery time.Duration
	// CompactAfter enables WAL compaction: after a checkpoint, if at
	// least this many whole WAL segments are fully covered by it, they
	// are deleted. Zero disables compaction.
	CompactAfter int
	// WALSyncEvery enables group commit on the broker's WAL: fsync once
	// per this many appends (0 keeps the default no-per-append-fsync
	// behaviour).
	WALSyncEvery int
	// Telemetry is the node the broker registers its histograms, trace
	// spans, and counters with. Nil uses the process-wide Default() —
	// in-process rigs inject private nodes to keep counts isolated.
	Telemetry *telemetry.Node
}

func (c BrokerConfig) withDefaults() BrokerConfig {
	if c.ViewCap <= 0 {
		c.ViewCap = 64
	}
	c.ViewCap = min(c.ViewCap, math.MaxUint16)
	if c.PolicyEvery <= 0 {
		c.PolicyEvery = 5 * time.Second
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = time.Second
	}
	if c.Policy.Slots <= 0 {
		c.Policy.Slots = 8
	}
	if c.Policy.SlotSeconds <= 0 {
		c.Policy.SlotSeconds = 1
	}
	if c.Policy.GraceSeconds == 0 {
		// Live clusters react immediately; a fresh replica's worth is
		// carried by its creation-time estimate, not a grace period.
		c.Policy.GraceSeconds = -1
	}
	if c.Policy.AdmissionEpsilon <= 0 {
		// ≈5 window-local reads of a remote view clear this bar, the
		// policy-world analogue of the retired HotReads counter.
		c.Policy.AdmissionEpsilon = 1000
	}
	return c
}

// defaultPlacement is the layout of a broker configured with no Placement:
// server 0 shares the broker's rack, every other server gets its own rack
// in a remote zone.
func defaultPlacement(servers int) *Placement {
	// The broker and server 0 keep the zero Position, rack 0 of zone 0.
	p := &Placement{Servers: make([]Position, servers)}
	for i := 1; i < servers; i++ {
		p.Servers[i] = Position{Zone: 1, Rack: i + 1}
	}
	return p
}

// serverTable is the epoch-versioned server-side state of a broker: one
// membership view plus everything derived from it. A table is immutable
// once published; a membership change builds a successor and swaps the
// broker's pointer, so the read and write paths grab one consistent table
// per operation with no locking. Slot indices are stable across epochs
// (removed servers leave dead tombstone slots), which keeps replica sets,
// placement pushes, and access reports valid across the swap; per-slot
// load counters are shared between consecutive tables for the same
// reason.
type serverTable struct {
	view  membership.View
	conns []*Client // per slot; nil for dead slots
	topo  *topology.Topology
	pol   *viewpolicy.Engine
	load  []*atomic.Int64 // views per slot (broker's accounting)
}

// serverPoolSize is how many multiplexed connections a broker keeps to
// each cache server and peer broker.
const serverPoolSize = 4

// maxReplicas bounds a view's replication degree, the home copy included.
const maxReplicas = 3

// home returns the slot user's view homes on under this table's epoch.
func (t *serverTable) home(user uint32) int { return t.view.Home(user) }

// conn returns the slot's connection, or nil when the slot is out of this
// table's range (a concurrent epoch added it) or dead.
func (t *serverTable) conn(idx int) *Client {
	if idx < 0 || idx >= len(t.conns) {
		return nil
	}
	return t.conns[idx]
}

// capacity is how many views the policy may place on slot idx: zero for
// draining and dead slots (they are never placement targets), the slot's
// own capacity, the broker default, or unbounded — in that order.
func (t *serverTable) capacity(idx, brokerDefault int) int {
	if idx < 0 || idx >= len(t.view.Servers) || t.view.Servers[idx].State != membership.StateActive {
		return 0
	}
	if c := t.view.Servers[idx].Capacity; c > 0 {
		return c
	}
	if brokerDefault > 0 {
		return brokerDefault
	}
	return math.MaxInt
}

// placeable reports whether slot idx may receive new replicas.
func (t *serverTable) placeable(idx int) bool {
	return idx >= 0 && idx < len(t.view.Servers) && t.view.Servers[idx].State == membership.StateActive
}

// label names a slot for operator-facing errors: address, slot index, and
// the membership epoch the caller was acting under — so a log line taken
// during a membership change identifies the server, not a bare index.
func (t *serverTable) label(idx int) string {
	if idx < 0 || idx >= len(t.view.Servers) {
		return fmt.Sprintf("server %d (unknown slot, epoch %d)", idx, t.view.Epoch)
	}
	return fmt.Sprintf("%s (server %d, epoch %d)", t.view.Servers[idx].Addr, idx, t.view.Epoch)
}

// brokerShardCount is the number of independently locked metadata shards;
// concurrent requests for different users evaluate policy in parallel.
const brokerShardCount = 16

// replicaMeta is the broker's bookkeeping for one replica of one view: the
// access window the policy consumes and the creation-time profit estimate
// that stands in for statistics during a configured grace period.
type replicaMeta struct {
	log       *stats.AccessLog
	createdAt int64
	estRate   float64
}

// viewMeta tracks one view's replica set: which servers hold it (home
// first, then policy-created copies), each replica's access window, and
// the view's placement version — the per-user fencing token minted into
// direct-read leases. The version bumps whenever a replica leaves its
// server (migrate, evict, drop, drain, purge): a lease granted before the
// move carries the old version, and the servers' stored copy of the new
// one fences it. Replica-set growth deliberately does not bump — an extra
// copy cannot make an old route wrong.
type viewMeta struct {
	order []int // server indices
	reps  map[int]*replicaMeta
	pv    uint64 // placement version
}

type brokerShard struct {
	mu    sync.Mutex
	views map[uint32]*viewMeta
}

// Broker executes the DynaSoRe API (§3.1) against the cache servers: Read
// fetches views from the replica set, Write persists to the WAL first and
// then refreshes every replica. Placement is driven by the shared
// viewpolicy engine — the same Algorithms 2–3 the simulator runs: per-view
// access logs feed replica creation, migration, and utility-based eviction
// over the configured cluster topology, applied through putView/deleteView.
// All policy state is sharded; network I/O never happens under a lock.
//
// In a multi-broker cluster (BrokerConfig.Peers), every broker serves the
// full Read/Write API from its own topology position — the paper's
// broker-per-front-end-cluster — while one elected leader (the alive peer
// with the smallest position) runs the placement policy over the whole
// cluster's traffic: followers push access reports to it, it pushes
// replica-set batches back, and periodic anti-entropy pulls repair anything
// a lost push left behind. Membership transitions travel as WAL records.
type Broker struct {
	cfg      BrokerConfig
	store    *wal.ViewStore
	recovery checkpoint.RecoveryInfo
	ckpt     *checkpoint.Manager // nil unless CheckpointEvery is set

	// tab is the epoch-versioned server-side state: the membership view
	// and everything derived from it (connections, topology, policy
	// engine, per-slot loads). Reads are lock-free; installs of a newer
	// epoch build a fresh table and swap the pointer. membMu serializes
	// mutations and installs.
	tab atomic.Pointer[serverTable]
	//dynalint:allow lockio membership transitions are rare, leader-only, and intentionally serialized through the durable broadcast pipeline
	membMu  sync.Mutex
	peerPos []Position // broker positions, index-aligned with Peers
	// rebalanceMu serializes the leader's rebalance/drain passes, so the
	// pass for one membership transition sees the settled outcome of the
	// previous one (back-to-back AddServers chain correctly).
	//dynalint:allow lockio this lock exists to serialize whole rebalance/drain passes, peer RPC included
	rebalanceMu sync.Mutex

	// Multi-broker state: this broker's index and machine ID, peer
	// connections (peers[selfIdx] == nil), and the current leader.
	nBrokers  int
	selfIdx   int
	self      topology.MachineID
	peers     []*peerState
	leaderIdx atomic.Int32
	syncRound atomic.Int64

	// Access aggregates pending in the next report to the leader
	// (followers only; see noteRead/noteWrite).
	reportMu  sync.Mutex
	repReads  map[repKey]uint32
	repWrites map[uint32]uint32

	shards [brokerShardCount]brokerShard

	// polMu guards the controller outputs consulted on the read path.
	// Lock order: shard.mu may be held while taking polMu (read); never
	// the other way around.
	polMu      sync.RWMutex
	thresholds []float64 // per machine: admission threshold
	evictFloor []float64 // per machine: weakest evictable utility
	minThr     map[topology.Origin]float64

	srv    *listener
	closed atomic.Bool
	stop   chan struct{}
	loops  sync.WaitGroup
	bgMu   sync.Mutex
	bgDone bool
	bg     sync.WaitGroup

	reads      atomic.Int64
	writes     atomic.Int64
	replicated atomic.Int64
	evicted    atomic.Int64
	migrated   atomic.Int64
	misses     atomic.Int64
	catchup    atomic.Int64 // records recovered via opLogPull
	leases     atomic.Int64 // direct-read leases granted

	// tel is the broker's telemetry node; the instruments below are
	// resolved once at construction so the request path never touches
	// the registry lock.
	tel             *telemetry.Node
	readHist        *telemetry.Histogram
	writeHist       *telemetry.Histogram
	leaseHist       *telemetry.Histogram
	statsHist       *telemetry.Histogram
	syncWriteHist   *telemetry.Histogram
	membTransitions *telemetry.Counter
}

// repKey identifies one (user, serving server) aggregate in a pending
// access report.
type repKey struct {
	user   uint32
	server uint16
}

// Errors returned by NewBroker and the membership Admin API.
var (
	ErrNoServers    = errors.New("cluster: broker needs at least one cache server")
	ErrBadPlacement = errors.New("cluster: placement must cover every cache server")
	ErrBadPeers     = errors.New("cluster: invalid peer configuration")
	// ErrNotLeader rejects a membership mutation on a follower broker;
	// network clients are forwarded to the leader transparently.
	ErrNotLeader = errors.New("cluster: not the placement-policy leader")
	// ErrReservedUser rejects reads and writes of the pseudo-user ID
	// membership records ride under in the WAL.
	ErrReservedUser = errors.New("cluster: user ID is reserved for membership records")
	// ErrStaleEpoch marks an operation that acted under a membership epoch
	// the cluster has since superseded — e.g. a write whose placement named
	// a replica slot with no connection in the current epoch's table. The
	// operation is safe to retry: the next attempt runs under the fresh
	// table.
	ErrStaleEpoch = errors.New("cluster: stale membership epoch")
)

// NewBroker starts a broker node.
func NewBroker(cfg BrokerConfig) (*Broker, error) {
	cfg = cfg.withDefaults()
	if len(cfg.ServerAddrs) == 0 {
		return nil, ErrNoServers
	}
	placement := cfg.Placement
	if placement == nil {
		placement = defaultPlacement(len(cfg.ServerAddrs))
	}
	if len(placement.Servers) != len(cfg.ServerAddrs) {
		return nil, fmt.Errorf("%w: %d positions for %d servers", ErrBadPlacement, len(placement.Servers), len(cfg.ServerAddrs))
	}
	peers := cfg.Peers
	selfIdx := cfg.Self
	if len(peers) == 0 {
		peers = []PeerInfo{{Pos: placement.Broker}}
		selfIdx = 0
	} else {
		if selfIdx < 0 || selfIdx >= len(peers) {
			return nil, fmt.Errorf("%w: self index %d of %d brokers", ErrBadPeers, selfIdx, len(peers))
		}
		for i, p := range peers {
			if i != selfIdx && p.Addr == "" {
				return nil, fmt.Errorf("%w: peer %d has no address", ErrBadPeers, i)
			}
		}
	}
	// The sequence space is partitioned by broker index, so no two brokers
	// of the cluster ever mint the same sequence number for different
	// events. Recovery goes through the checkpoint subsystem: the latest
	// intact snapshot seeds the store and only the log tail is replayed.
	walOpts := wal.Options{SeqStride: uint64(len(peers)), SeqOffset: uint64(selfIdx), SyncEvery: cfg.WALSyncEvery}
	store, recovery, err := checkpoint.OpenViewStore(cfg.DataDir, cfg.ViewCap, walOpts)
	if err != nil {
		return nil, fmt.Errorf("open persistent store: %w", err)
	}
	// Epoch 1 of the membership view comes from the static configuration;
	// any later epoch recorded in the WAL (the cluster was grown, drained,
	// or shrunk while this broker was alive or away) overrides it.
	seed := make([]membership.ServerInfo, len(cfg.ServerAddrs))
	for i, addr := range cfg.ServerAddrs {
		seed[i] = membership.ServerInfo{
			Addr:     addr,
			Zone:     placement.Servers[i].Zone,
			Rack:     placement.Servers[i].Rack,
			Capacity: cfg.ServerCapacity,
		}
	}
	view := membership.Seed(seed)
	if recovered, ok := latestMembershipView(store); ok && recovered.Epoch > view.Epoch {
		view = recovered
	}
	b := &Broker{
		cfg:       cfg,
		store:     store,
		recovery:  recovery,
		nBrokers:  len(peers),
		selfIdx:   selfIdx,
		self:      topology.MachineID(selfIdx),
		peers:     make([]*peerState, len(peers)),
		repReads:  make(map[repKey]uint32),
		repWrites: make(map[uint32]uint32),
		minThr:    make(map[topology.Origin]float64),
		stop:      make(chan struct{}),
	}
	b.tel = cfg.Telemetry
	if b.tel == nil {
		b.tel = telemetry.Default()
	}
	b.readHist = b.tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "read")
	b.writeHist = b.tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "write")
	b.leaseHist = b.tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "lease")
	b.statsHist = b.tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "stats")
	b.syncWriteHist = b.tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "sync_write")
	b.membTransitions = b.tel.Counter("dynasore_membership_transitions_total", "Membership views installed (epoch changes applied by this broker).")
	for _, p := range peers {
		b.peerPos = append(b.peerPos, p.Pos)
	}
	tab, err := b.buildTable(view, nil)
	if err != nil {
		// A failed final sync is worth surfacing even on an error path.
		return nil, errors.Join(err, store.Close())
	}
	b.tab.Store(tab)
	b.thresholds = make([]float64, tab.topo.NumMachines())
	b.evictFloor = make([]float64, tab.topo.NumMachines())
	for i := range b.evictFloor {
		b.evictFloor[i] = viewpolicy.Inf
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("cluster: listen: %w", err), store.Close())
		}
	}
	for i, p := range peers {
		if i == selfIdx {
			continue
		}
		ps := &peerState{idx: i, info: p, conn: newLink(p.Addr, peerTimeout(cfg.SyncEvery), b.tel)}
		ps.alive.Store(true) // optimistic until the first probe round
		b.peers[i] = ps
	}
	b.elect()
	for i := range b.shards {
		b.shards[i].views = make(map[uint32]*viewMeta)
	}
	if cfg.CheckpointEvery > 0 {
		b.ckpt = checkpoint.NewManager(store, checkpoint.Options{
			Dir:          cfg.DataDir,
			Every:        cfg.CheckpointEvery,
			CompactAfter: cfg.CompactAfter,
		})
		b.loops.Add(1)
		go func() {
			defer b.loops.Done()
			b.ckpt.Run(b.stop)
		}()
	}
	// Teach the cache servers the starting epoch so direct reads work
	// before the first write or membership change reaches them.
	b.pushEpochAll(tab)
	b.srv = serve(ln, b.handle)
	b.loops.Add(1)
	go b.maintainLoop()
	if b.nBrokers > 1 {
		b.loops.Add(1)
		go b.syncLoop()
	}
	return b, nil
}

// Recovery reports how the broker's persistent store came up: whether a
// checkpoint seeded it and how many WAL records were replayed on top (the
// whole log without a checkpoint).
func (b *Broker) Recovery() (fromCheckpoint bool, replayed int) {
	return b.recovery.FromCheckpoint, b.recovery.Replayed
}

// Addr returns the broker's client-facing address.
func (b *Broker) Addr() string { return b.srv.ln.Addr().String() }

// table returns the broker's current epoch-versioned server table. Every
// operation grabs it once and works against that one consistent snapshot.
func (b *Broker) table() *serverTable { return b.tab.Load() }

// home returns the slot user's view homes on under the current epoch.
func (b *Broker) home(user uint32) int { return b.table().home(user) }

// HomeOf reports the cache-server slot user's view homes on under the
// broker's current membership epoch — rendezvous hashing over the active
// servers, identical on every broker of the cluster.
func (b *Broker) HomeOf(user uint32) int { return b.home(user) }

// Epoch returns the broker's current membership epoch.
func (b *Broker) Epoch() uint64 { return b.table().view.Epoch }

// viewSupersedes reports whether next should replace cur: a newer epoch
// always wins, and EQUAL epochs — two leaders on either side of a
// partition each minting a transition under the same number — are
// settled by comparing the encoded views, a total order every broker
// evaluates identically. One side's transition is dropped (the operator
// re-issues it), but the cluster converges on a single view instead of
// diverging forever.
func viewSupersedes(next, cur membership.View) bool {
	if next.Epoch != cur.Epoch {
		return next.Epoch > cur.Epoch
	}
	return bytes.Compare(membership.AppendView(nil, next), membership.AppendView(nil, cur)) > 0
}

// latestMembershipView recovers the newest membership transition recorded
// in the store's WAL (under membership.ReservedUser), if any — restarts
// and checkpoint loads come back at the epoch the cluster had reached,
// not the configured seed.
func latestMembershipView(store *wal.ViewStore) (membership.View, bool) {
	recs, _ := store.View(membership.ReservedUser)
	best := membership.View{}
	found := false
	for _, r := range recs {
		v, _, err := membership.DecodeView(r.Payload)
		if err != nil || v.Validate() != nil {
			continue
		}
		if !found || viewSupersedes(v, best) {
			best, found = v, true
		}
	}
	return best, found
}

// buildTable derives a server table from a membership view: a connection
// per live slot, the datacenter topology over brokers plus every slot
// (dead tombstones keep their machine so IDs never shift), and the policy
// engine planning over it. Connections and load counters of slots present
// in old carry over, so in-flight operations holding the old table keep
// mutating the same counters the new table reads.
func (b *Broker) buildTable(view membership.View, old *serverTable) (*serverTable, error) {
	if err := view.Validate(); err != nil {
		return nil, err
	}
	machines := make([]topology.Placed, 0, b.nBrokers+len(view.Servers))
	for _, pos := range b.peerPos {
		machines = append(machines, topology.Placed{Kind: topology.KindBroker, Zone: pos.Zone, Rack: pos.Rack})
	}
	for _, s := range view.Servers {
		machines = append(machines, topology.Placed{Kind: topology.KindServer, Zone: s.Zone, Rack: s.Rack})
	}
	topo, err := topology.NewCustom(machines)
	if err != nil {
		return nil, err
	}
	t := &serverTable{
		view:  view,
		conns: make([]*Client, len(view.Servers)),
		topo:  topo,
		pol:   viewpolicy.New(topo, b.cfg.Policy),
		load:  make([]*atomic.Int64, len(view.Servers)),
	}
	for i, s := range view.Servers {
		if old != nil && i < len(old.load) {
			t.load[i] = old.load[i]
		} else {
			t.load[i] = new(atomic.Int64)
		}
		if s.State == membership.StateDead {
			continue // tombstone: no connection
		}
		if old != nil && i < len(old.conns) && old.conns[i] != nil &&
			old.view.Servers[i].Addr == s.Addr {
			t.conns[i] = old.conns[i]
		} else {
			t.conns[i] = newLink(s.Addr, serverCallTimeout, b.tel)
		}
	}
	return t, nil
}

// retireGrace is how long the link of a slot dropped from the server
// table keeps serving: an operation that loaded the old table just before
// the swap (a write between its WAL append and its replica puts) still
// finishes against it. Later calls on the closed link report
// ErrStaleEpoch.
const retireGrace = 5 * time.Second

// installLocked publishes a superseding membership view: it builds the
// successor table, grows the policy-threshold arrays to the new topology,
// swaps the table pointer, and retires replaced slots (their connections
// close after retireGrace, and newly dead slots' replicas are dropped from
// every placement entry — reads fall back to surviving replicas or the
// WAL). Caller holds
// membMu. Installing a view that does not supersede the current one is a
// no-op.
func (b *Broker) installLocked(next membership.View) error {
	old := b.table()
	if !viewSupersedes(next, old.view) {
		return nil
	}
	nt, err := b.buildTable(next, old)
	if err != nil {
		return err
	}
	b.polMu.Lock()
	for len(b.thresholds) < nt.topo.NumMachines() {
		b.thresholds = append(b.thresholds, 0)
	}
	for len(b.evictFloor) < nt.topo.NumMachines() {
		b.evictFloor = append(b.evictFloor, viewpolicy.Inf)
	}
	b.polMu.Unlock()
	b.tab.Store(nt)
	for i := range old.conns {
		if old.conns[i] == nil || (i < len(nt.conns) && nt.conns[i] == old.conns[i]) {
			continue
		}
		// The slot died, or (equal-epoch conflict resolution) its address
		// changed; either way the old connection is retired.
		time.AfterFunc(retireGrace, func() { old.conns[i].Close() })
		if i < len(next.Servers) && next.Servers[i].State == membership.StateDead {
			b.purgeServer(nt, i)
		}
	}
	// Arm the direct-read fence under the new epoch: until a server hears
	// it, that server refuses direct reads from clients already leased
	// under it (and clients leased under the old epoch are refused
	// everywhere the new epoch has reached).
	b.pushEpochAll(nt)
	b.membTransitions.Inc()
	return nil
}

// purgeServer removes every replica accounted to a dead slot, without
// contacting the server. A view whose only replica lived there loses its
// placement entry entirely; the next access re-homes it and refills the
// cache from the WAL.
func (b *Broker) purgeServer(t *serverTable, idx int) {
	for si := range b.shards {
		sh := &b.shards[si]
		sh.mu.Lock()
		for user, meta := range sh.views {
			if meta.reps[idx] == nil {
				continue
			}
			removeLocked(meta, idx)
			t.load[idx].Add(-1)
			if len(meta.order) == 0 {
				delete(sh.views, user)
			}
		}
		sh.mu.Unlock()
	}
}

// Membership returns the broker's current membership view and per-slot
// replica counts (the operator's window into a drain's progress).
func (b *Broker) Membership() MembershipInfo {
	t := b.table()
	loads := make([]int64, len(t.load))
	for i, l := range t.load {
		loads[i] = l.Load()
	}
	return MembershipInfo{View: t.view.Clone(), Loads: loads}
}

// AddServer admits a new cache server into the cluster under the next
// membership epoch. Leader-only (network clients are forwarded): the
// transition is persisted to the WAL, replicated to the peers' logs,
// installed locally, broadcast, and the new server immediately starts
// receiving its rendezvous share of homes — existing views whose home
// moved are migrated over by the maintenance pass.
func (b *Broker) AddServer(info membership.ServerInfo) (membership.View, error) {
	b.membMu.Lock()
	defer b.membMu.Unlock()
	if !b.IsLeader() {
		return membership.View{}, ErrNotLeader
	}
	cur := b.table().view
	if idx := cur.IndexOf(info.Addr); idx >= 0 {
		s := cur.Servers[idx]
		if s.State == membership.StateActive && s.Zone == info.Zone &&
			s.Rack == info.Rack && s.Capacity == info.Capacity {
			// An identical registration of an already-active server is a
			// no-op, not an error — a cache server restarted by a
			// supervisor with the same -join flags resumes under its
			// existing slot instead of dying on a duplicate-address
			// rejection.
			return cur.Clone(), nil
		}
	}
	next, err := cur.WithAdded(info)
	if err != nil {
		return membership.View{}, err
	}
	return b.commitViewLocked(next)
}

// DrainServer starts decommissioning a cache server: under the next epoch
// the server stays readable but is no longer a home or placement target,
// and the leader's maintenance pass migrates its replicas out through the
// ordinary migration machinery. Once its replica count reaches zero (see
// Membership), RemoveServer retires the slot for good. Leader-only.
func (b *Broker) DrainServer(addr string) (membership.View, error) {
	b.membMu.Lock()
	defer b.membMu.Unlock()
	if !b.IsLeader() {
		return membership.View{}, ErrNotLeader
	}
	next, err := b.table().view.WithDraining(addr)
	if err != nil {
		return membership.View{}, err
	}
	return b.commitViewLocked(next)
}

// RemoveServer tombstones a cache server's slot under the next epoch.
// Replicas still on the server are abandoned (reads fall back to the
// surviving replicas or the WAL), so the zero-miss sequence is
// DrainServer first, RemoveServer when the slot's replica count reaches
// zero. Leader-only.
func (b *Broker) RemoveServer(addr string) (membership.View, error) {
	b.membMu.Lock()
	defer b.membMu.Unlock()
	if !b.IsLeader() {
		return membership.View{}, ErrNotLeader
	}
	next, err := b.table().view.WithDead(addr)
	if err != nil {
		return membership.View{}, err
	}
	return b.commitViewLocked(next)
}

// commitViewLocked drives one membership transition through the full
// pipeline: WAL record first (durability), replication to peer logs (the
// record is the push: a follower installs it as it applies the sync write),
// local install, and a maintenance kick so homes rebalance and drains start
// without waiting for the next policy tick.
// Caller holds membMu and has verified leadership.
func (b *Broker) commitViewLocked(next membership.View) (membership.View, error) {
	old := b.table().view
	payload := membership.AppendView(nil, next)
	at := time.Now().UnixNano()
	seq, err := b.store.Append(membership.ReservedUser, at, payload)
	if err != nil {
		return membership.View{}, fmt.Errorf("persist membership transition: %w", err)
	}
	if b.nBrokers > 1 {
		b.broadcastSyncWrite(membership.ReservedUser, seq, at, payload, telemetry.TraceContext{})
	}
	if err := b.installLocked(next); err != nil {
		return membership.View{}, err
	}
	b.kickMaintenance(old, next)
	return next, nil
}

// applyMembershipPayload installs a membership view received from a peer
// (WAL replication, catch-up, or the periodic leader pull) if
// its epoch is newer than the one this broker holds. Malformed or stale
// payloads are ignored — the sender's next anti-entropy round repairs any
// real gap.
func (b *Broker) applyMembershipPayload(payload []byte) {
	v, _, err := membership.DecodeView(payload)
	if err != nil || v.Validate() != nil {
		return
	}
	b.membMu.Lock()
	defer b.membMu.Unlock()
	old := b.table().view
	if !viewSupersedes(v, old) {
		return
	}
	if err := b.installLocked(v); err == nil && b.IsLeader() {
		// A follower that became leader (or a leader that learned of a
		// transition it missed) owns the rebalance and drain work now.
		b.kickMaintenance(old, v)
	}
}

// kickMaintenance runs one rebalance-and-drain pass in the background
// right after a membership transition, so the cluster starts converging
// immediately instead of waiting for the next PolicyEvery tick. Leader
// only; tracked so Close waits for it.
func (b *Broker) kickMaintenance(oldView, newView membership.View) {
	if !b.IsLeader() {
		return
	}
	b.spawn(func() {
		b.rebalanceMu.Lock()
		defer b.rebalanceMu.Unlock()
		b.rebalanceHomes(oldView, newView)
		b.drainOnce(time.Now().Unix())
	})
}

// rebalanceHomes migrates the views whose rendezvous home changed between
// two membership epochs: a view still sitting at its old home moves to the
// new one through the ordinary migration machinery (commit placement, then
// copy data — a concurrent read refills from the WAL, never fails). Views
// the placement policy already moved elsewhere are left where their
// readers are; rendezvous hashing bounds the moved set to the fair share
// of the membership change.
func (b *Broker) rebalanceHomes(oldView, newView membership.View) {
	if oldView.Epoch == 0 {
		return
	}
	now := time.Now().Unix()
	type move struct {
		user     uint32
		src, dst int
	}
	var moves []move
	for si := range b.shards {
		sh := &b.shards[si]
		sh.mu.Lock()
		for user, meta := range sh.views {
			if user == membership.ReservedUser {
				continue
			}
			oldHome, newHome := oldView.Home(user), newView.Home(user)
			if newHome < 0 || oldHome == newHome || oldHome < 0 {
				continue
			}
			if meta.reps[newHome] != nil || meta.reps[oldHome] == nil {
				continue
			}
			moves = append(moves, move{user: user, src: oldHome, dst: newHome})
		}
		sh.mu.Unlock()
	}
	var changed []uint32
	for _, m := range moves {
		if b.migrateReplica(now, m.user, m.src, viewpolicy.Decision{Op: viewpolicy.OpMigrate, Target: b.machineOf(m.dst)}) {
			changed = append(changed, m.user)
		}
	}
	// One batched frame per peer instead of a per-user broadcast burst.
	b.broadcastPlacement(changed...)
}

// drainOnce advances every draining server's decommissioning by one pass:
// replicas with surviving copies elsewhere are simply dropped from the
// replica set (readers fail over to the other copies), and sole replicas
// are migrated to the view's new home before the draining copy is deleted
// — the drain safety rule: data leaves a server only after it lives
// somewhere else. Leader only.
func (b *Broker) drainOnce(now int64) {
	t := b.table()
	for idx, s := range t.view.Servers {
		if s.State != membership.StateDraining {
			continue
		}
		type rep struct {
			user uint32
			sole bool
		}
		var reps []rep
		for si := range b.shards {
			sh := &b.shards[si]
			sh.mu.Lock()
			for user, meta := range sh.views {
				if meta.reps[idx] != nil {
					reps = append(reps, rep{user: user, sole: len(meta.order) == 1})
				}
			}
			sh.mu.Unlock()
		}
		var changed []uint32
		for _, r := range reps {
			if r.sole {
				if dst := t.home(r.user); dst >= 0 &&
					b.migrateReplica(now, r.user, idx, viewpolicy.Decision{Op: viewpolicy.OpMigrate, Target: b.machineOf(dst)}) {
					changed = append(changed, r.user)
				}
				continue
			}
			if b.removeReplica(r.user, idx) {
				b.evicted.Add(1)
				changed = append(changed, r.user)
			}
		}
		b.broadcastPlacement(changed...)
	}
}

func (b *Broker) shard(user uint32) *brokerShard {
	return &b.shards[(user*2654435761)>>28&(brokerShardCount-1)]
}

// machineOf maps a cache-server index to its topology machine ID; brokers
// occupy machines 0..nBrokers-1, servers follow.
func (b *Broker) machineOf(idx int) topology.MachineID {
	return topology.MachineID(idx + b.nBrokers)
}

// serverIdxOf is the inverse of machineOf.
func (b *Broker) serverIdxOf(m topology.MachineID) int { return int(m) - b.nBrokers }

// metaLocked returns user's replica bookkeeping, lazily placing the home
// replica under t's epoch. Caller holds sh.mu.
func (b *Broker) metaLocked(t *serverTable, sh *brokerShard, user uint32, now int64) *viewMeta {
	meta, ok := sh.views[user]
	if !ok {
		home := t.home(user)
		if home < 0 {
			home = 0 // unreachable: every installed view has an active slot
		}
		meta = &viewMeta{order: []int{home}, reps: map[int]*replicaMeta{home: b.newReplicaMeta(t, now, 0)}}
		sh.views[user] = meta
		t.load[home].Add(1)
	}
	return meta
}

func (b *Broker) newReplicaMeta(t *serverTable, now int64, estRate float64) *replicaMeta {
	cfg := t.pol.Config()
	log, _ := stats.NewAccessLog(cfg.Slots, cfg.SlotSeconds)
	return &replicaMeta{log: log, createdAt: now, estRate: estRate}
}

// viewStateLocked snapshots the replica set for the policy engine,
// bounded to the slots t knows (a replica added under a newer epoch is
// invisible to an operation still holding the older table). Caller holds
// the shard lock.
func (b *Broker) viewStateLocked(t *serverTable, meta *viewMeta) viewpolicy.ViewState {
	replicas := make([]topology.MachineID, 0, len(meta.order))
	for _, idx := range meta.order {
		if idx < len(t.conns) {
			replicas = append(replicas, b.machineOf(idx))
		}
	}
	// This broker is the view's read and write proxy as far as its own
	// policy evaluation is concerned.
	return viewpolicy.ViewState{Replicas: replicas, WriteProxy: b.self}
}

// brokerEnv adapts broker state to the policy engine's read-only cluster
// view while evaluating one view under one server table. It may be used
// under a shard lock; it only takes polMu read locks (see Broker.polMu
// ordering).
type brokerEnv struct {
	b *Broker
	//dynalint:allow epochtable per-evaluation adapter: built and discarded inside one policy pass, never cached across operations
	t    *serverTable
	meta *viewMeta
}

func (e brokerEnv) Load(m topology.MachineID) int {
	return int(e.t.load[e.b.serverIdxOf(m)].Load())
}
func (e brokerEnv) Capacity(m topology.MachineID) int {
	return e.t.capacity(e.b.serverIdxOf(m), e.b.cfg.ServerCapacity)
}
func (e brokerEnv) EvictFloor(m topology.MachineID) float64 {
	if !e.t.placeable(e.b.serverIdxOf(m)) {
		// Draining and dead slots never admit newcomers, not even by
		// displacing their weakest view.
		return viewpolicy.Inf
	}
	e.b.polMu.RLock()
	defer e.b.polMu.RUnlock()
	return e.b.evictFloor[m]
}
func (e brokerEnv) Threshold(m topology.MachineID) float64 {
	e.b.polMu.RLock()
	defer e.b.polMu.RUnlock()
	return e.b.thresholds[m]
}
func (e brokerEnv) SubtreeThreshold(o topology.Origin) float64 {
	e.b.polMu.RLock()
	defer e.b.polMu.RUnlock()
	return e.b.minThr[o]
}
func (e brokerEnv) Holds(m topology.MachineID) bool {
	for _, idx := range e.meta.order {
		if e.b.machineOf(idx) == m {
			return true
		}
	}
	return false
}

// Write implements the paper's write path: persist the event first, then
// update every cache replica with the fresh view. Every failed replica
// update is reported (joined into one error) and the dead replicas are
// dropped from the set — a partially updated replica set is never silent.
// In a multi-broker cluster the durable event is also replicated to every
// peer's log, so any broker can later rebuild the view.
func (b *Broker) Write(user uint32, payload []byte) (uint64, error) {
	return b.writeTraced(user, payload, nil)
}

// writeTraced is Write under an optional span (nil when the request is
// unsampled): the span collects the wal/replicate/fanout stage breakdown
// and its context rides the replica puts and the peer sync writes, so
// the whole write path of a sampled request is one trace.
func (b *Broker) writeTraced(user uint32, payload []byte, sp *telemetry.Span) (uint64, error) {
	if user == membership.ReservedUser {
		return 0, ErrReservedUser
	}
	t := b.table()
	at := time.Now().UnixNano()
	seq, err := b.store.Append(user, at, payload)
	if err != nil {
		return 0, fmt.Errorf("persist write: %w", err)
	}
	sp.Stage("wal")
	if b.nBrokers > 1 {
		b.broadcastSyncWrite(user, seq, at, payload, sp.Context())
		sp.Stage("replicate")
	}
	now := time.Now().Unix()
	view := b.currentView(user)
	sh := b.shard(user)
	sh.mu.Lock()
	meta := b.metaLocked(t, sh, user, now)
	for _, rep := range meta.reps {
		rep.log.RecordWrite(now)
	}
	set := append([]int(nil), meta.order...)
	pv := meta.pv
	sh.mu.Unlock()
	if !b.IsLeader() {
		b.noteWrite(user)
	}

	var errs []error
	var failed []int
	for _, idx := range set {
		conn := t.conn(idx)
		if conn == nil {
			// The slot died (or appeared) under a different epoch than the
			// one this write is acting under. Like any unreachable replica
			// it is reported and dropped — never silently skipped, which
			// would leave a possibly stale cached view marked current.
			errs = append(errs, fmt.Errorf("update replica on %s: no connection in this epoch's table: %w", t.label(idx), ErrStaleEpoch))
			failed = append(failed, idx)
			continue
		}
		if err := conn.putView(user, view, t.view.Epoch, pv, b.cfg.ViewCap, sp.Context()); err != nil {
			errs = append(errs, fmt.Errorf("update replica on %s: %w", t.label(idx), err))
			failed = append(failed, idx)
		}
	}
	sp.Stage("fanout")
	if len(failed) > 0 && len(failed) < len(set) {
		// Reachable replicas stay current; unreachable ones would serve
		// stale views if they came back, so drop them (reads re-create
		// replicas on demand and the WAL refills caches).
		b.dropReplicas(user, failed)
	}
	b.writes.Add(1)
	return seq, errors.Join(errs...)
}

// currentView materializes the persistent store's view of user, each event
// tagged with its WAL sequence number.
func (b *Broker) currentView(user uint32) View {
	recs, ver := b.store.View(user)
	v := View{Version: ver, Events: make([][]byte, len(recs)), seqs: make([]uint64, len(recs))}
	for i, r := range recs {
		v.Events[i], v.seqs[i] = r.Payload, r.Seq
	}
	return v
}

// ReadOne fetches a single view: a Read of one user.
func (b *Broker) ReadOne(user uint32) (View, error) {
	views, _, err := b.readTraced([]uint32{user}, telemetry.TraceContext{})
	if err != nil {
		return View{}, err
	}
	return views[0], nil
}

// readPlan is one user's share of a Read, fixed under its shard lock
// before any view is fetched: the slot that serves it (-1 when every
// replica lives on a slot this table does not know), the placement
// decision the access produced on the policy leader, and the replica set
// to fall back on.
type readPlan struct {
	user      uint32
	idx       int
	decision  viewpolicy.Decision
	fallbacks []int
}

// planRead records one access to user on the replica closest to this
// broker and plans its read. The placement-policy leader evaluates the
// access inline (the decision is applied once the view is served);
// followers aggregate it into their next report to the leader instead.
func (b *Broker) planRead(t *serverTable, now int64, leader bool, user uint32) readPlan {
	sh := b.shard(user)
	sh.mu.Lock()
	meta := b.metaLocked(t, sh, user, now)
	view := b.viewStateLocked(t, meta)
	serving := t.topo.ClosestOf(b.self, view.Replicas)
	if serving == topology.NoMachine {
		sh.mu.Unlock()
		return readPlan{user: user, idx: -1}
	}
	p := readPlan{user: user, idx: b.serverIdxOf(serving), fallbacks: append([]int(nil), meta.order...)}
	rep := meta.reps[p.idx]
	rep.log.RecordRead(now, t.topo.OriginOf(serving, b.self))
	if leader {
		p.decision = b.evaluateLocked(t, now, meta, view, serving, rep)
	}
	sh.mu.Unlock()
	if !leader {
		b.noteRead(user, p.idx)
	}
	return p
}

// readGroup is the users of one Read that one cache server serves: its
// slot and the users' positions in the Read.
type readGroup struct {
	idx int
	at  []int
}

// fetchGroup fetches the views of g's users from its slot in one get and
// settles each: views[i] and wires[i] receive the view of the Read's
// i-th target and its wire form. The get and its settling act under the
// table current when they start; a slot the membership retired since
// the plan has no connection in it, and its users fall back.
func (b *Broker) fetchGroup(now int64, g readGroup, plans []readPlan, views []View, wires [][]byte, tc telemetry.TraceContext) {
	t := b.table()
	users := make([]uint32, len(g.at))
	for k, i := range g.at {
		users[k] = plans[i].user
	}
	got, gotWires, err := b.getViews(t, g.idx, users, tc)
	for k, i := range g.at {
		var v View
		var w []byte
		if err == nil {
			v, w = got[k], gotWires[k]
		}
		views[i], wires[i] = b.settleRead(t, now, plans[i], v, w, err, tc)
	}
}

// settleRead finishes one user's read from what its serving slot
// answered: v and its wire form (nil for a miss), or the get's error. A
// miss is filled and a lagging copy repaired (see checkCached). A failed
// slot never fails the read: the user's other replicas are tried, and
// the WAL serves as a last resort (crash recovery, §3.3). Then the
// placement decision the access produced is applied.
func (b *Broker) settleRead(t *serverTable, now int64, p readPlan, v View, wire []byte, err error, tc telemetry.TraceContext) (View, []byte) {
	if err == nil {
		v, wire, err = b.checkCached(t, p.user, p.idx, v, wire)
	}
	if err != nil {
		// The serving replica is unreachable: drop it, try the remaining
		// replicas, and as a last resort serve straight from the WAL.
		b.dropReplicas(p.user, []int{p.idx})
		recovered := false
		for _, alt := range p.fallbacks {
			if alt == p.idx {
				continue
			}
			if av, aw, aerr := b.readReplica(t, p.user, alt, tc); aerr == nil {
				v, wire, recovered = av, aw, true
				break
			}
			b.dropReplicas(p.user, []int{alt})
		}
		if !recovered {
			b.misses.Add(1)
			v, wire = b.currentView(p.user), nil
			// If every replica sits on a dead slot (a lazy home minted
			// under a pre-remove table — the one placement purgeServer
			// could not see), reset the entry so the next access re-homes
			// it on a live server.
			b.rehomeStranded(p.user)
		}
		// Read-repair: the view was served despite the failed replica, so
		// offer it back to that server in the background — a transient
		// blip (restart, dropped connection) heals at read time instead
		// of waiting for the policy tick to notice the lost copy.
		b.readRepair(p.user, p.idx, v)
	}
	b.applyDecision(now, p.user, p.idx, p.decision)
	return v, wire
}

// leaseTTL bounds how long a direct-read lease stays valid on a client
// before it must re-lease from the broker: short enough that a lost
// invalidation self-heals quickly, long enough that a hot reader
// amortizes the grant over many direct reads.
const leaseTTL = 5 * time.Second

// leaseFor mints a direct-read lease for user: the dialable addresses of
// its replica set plus the two fencing tokens (membership epoch and
// placement version) and leaseTTL. Issuance piggybacks on the
// placement table the read path already maintains — one table snapshot,
// one shard-lock hold, no network I/O.
func (b *Broker) leaseFor(user uint32) (Lease, error) {
	if user == membership.ReservedUser {
		return Lease{}, ErrReservedUser
	}
	t := b.table()
	now := time.Now().Unix()
	sh := b.shard(user)
	sh.mu.Lock()
	meta := b.metaLocked(t, sh, user, now)
	order := append([]int(nil), meta.order...)
	pv := meta.pv
	sh.mu.Unlock()
	l := Lease{User: user, Epoch: t.view.Epoch, Placement: pv, TTL: leaseTTL}
	for _, idx := range order {
		if idx < 0 || idx >= len(t.view.Servers) || t.conn(idx) == nil {
			continue // a slot from another epoch, or a dead tombstone
		}
		l.Replicas = append(l.Replicas, LeaseReplica{Slot: uint16(idx), Addr: t.view.Servers[idx].Addr})
	}
	if len(l.Replicas) == 0 {
		return Lease{}, fmt.Errorf("cluster: no reachable replica to lease for user %d", user)
	}
	b.leases.Add(1)
	return l, nil
}

// pushEpochAll teaches every live cache server of table t the current
// membership epoch, in the background (tracked so Close waits for it).
// Best-effort: a server that misses the push stays fenced — it refuses
// direct reads, never misserves them — and the next put repairs it.
func (b *Broker) pushEpochAll(t *serverTable) {
	b.spawn(func() {
		for idx := range t.conns {
			if conn := t.conn(idx); conn != nil {
				_ = conn.pushEpoch(t.view.Epoch)
			}
		}
	})
}

// readRepair re-installs user's view on a replica that failed to serve a
// read which another replica (or the WAL) then answered — the stale or
// cold copy is fixed at read time instead of waiting for a policy tick.
// Runs in the background, tracked so Close waits for it.
func (b *Broker) readRepair(user uint32, idx int, v View) {
	b.spawn(func() { b.readdReplica(user, idx, v) })
}

// readdReplica probes server idx with the already-served view and, if the
// server took it, re-admits it into user's replica set. The probe comes
// first so a still-dead server costs one round trip and no placement
// churn; the commit follows the usual commit-placement-then-fill order —
// after the set names the server again, the WAL view is re-put, so an
// event written between probe and commit (which skipped the not-yet-
// member replica) cannot leave the repaired copy stale. The commit takes
// the checks a policy create takes: the replication cap and the slot's
// capacity. A copy the commit refuses is deleted from the server again,
// unless another path made the slot a member meanwhile: left there, it
// would sit outside every replica set and every slot's load, where
// ServerCapacity no longer bounds it. It reports whether the replica set
// changed.
func (b *Broker) readdReplica(user uint32, idx int, v View) bool {
	t := b.table()
	if !t.placeable(idx) {
		return false
	}
	conn := t.conn(idx)
	if conn == nil {
		return false
	}
	if err := conn.putView(user, v, t.view.Epoch, b.pvOf(user), b.cfg.ViewCap, telemetry.TraceContext{}); err != nil {
		return false
	}
	now := time.Now().Unix()
	sh := b.shard(user)
	sh.mu.Lock()
	meta, ok := sh.views[user]
	if ok && meta.reps[idx] != nil {
		// Another path admitted the copy since it was dropped; the probe
		// merged into a member's copy.
		sh.mu.Unlock()
		return false
	}
	if !ok || len(meta.order) >= maxReplicas || int(t.load[idx].Load()) >= t.capacity(idx, b.cfg.ServerCapacity) {
		// The slot may have filled since the copy was dropped (the
		// leader's creates for other users), and a repair must not push
		// it past its capacity. Should a racing admission make the slot a
		// member before the delete lands, its copy is refilled on the
		// next miss.
		sh.mu.Unlock()
		_ = conn.deleteView(user)
		return false
	}
	meta.order = append(meta.order, idx)
	meta.reps[idx] = b.newReplicaMeta(t, now, 0)
	t.load[idx].Add(1)
	pv := meta.pv
	sh.mu.Unlock()
	added := conn.putView(user, b.currentView(user), t.view.Epoch, pv, b.cfg.ViewCap, telemetry.TraceContext{}) == nil
	if !added {
		b.removeReplica(user, idx)
	}
	b.broadcastPlacement(user)
	return added
}

// rehomeStranded deletes user's placement entry when none of its replicas
// has a connection in the current table — every copy is accounted to dead
// (or unknown) slots, which no maintenance pass would ever repair. The
// next access lazily re-homes the user under the current epoch and
// refills the cache from the WAL. Replicas on live-but-crashed servers
// keep their entry (their connections exist; the ordinary drop/refill
// machinery owns that case).
func (b *Broker) rehomeStranded(user uint32) {
	t := b.table()
	sh := b.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	meta, ok := sh.views[user]
	if !ok {
		return
	}
	for _, idx := range meta.order {
		if t.conn(idx) != nil {
			return
		}
	}
	for _, idx := range meta.order {
		if idx < len(t.load) {
			t.load[idx].Add(-1)
		}
	}
	delete(sh.views, user)
}

// getViews fetches the views of users from server idx in one get; a
// sampled trace context rides it so the cache server's span joins the
// trace. wires[i] is nil for a miss.
func (b *Broker) getViews(t *serverTable, idx int, users []uint32, tc telemetry.TraceContext) ([]View, [][]byte, error) {
	conn := t.conn(idx)
	if conn == nil {
		return nil, nil, fmt.Errorf("no connection to %s", t.label(idx))
	}
	return conn.getViews(users, tc)
}

// readReplica fetches user's view from server idx alone and settles it as
// checkCached does.
func (b *Broker) readReplica(t *serverTable, user uint32, idx int, tc telemetry.TraceContext) (View, []byte, error) {
	views, wires, err := b.getViews(t, idx, []uint32{user}, tc)
	if err != nil {
		return View{}, nil, err
	}
	return b.checkCached(t, user, idx, views[0], wires[0])
}

// checkCached settles what server idx answered for user: v and its wire
// form, or a nil wire for a miss. A miss is refilled from the freshest
// view this broker can prove; a copy behind this broker's store is
// served from that view and repaired in place. The wire form returned is
// nil when the view served is not the one the server answered with.
func (b *Broker) checkCached(t *serverTable, user uint32, idx int, v View, wire []byte) (View, []byte, error) {
	conn := t.conn(idx)
	switch {
	case wire == nil:
		b.misses.Add(1)
		v = b.freshestView(t, user, b.ReplicaSet(user))
		if pv, found := b.peerFreshestView(user, v.Version); found {
			// A peer's store carries a write this broker has not replicated
			// yet; filling below it would seed the cache with a view that
			// lags an acknowledged write.
			v = pv
		}
		if err := conn.putView(user, v, t.view.Epoch, b.pvOf(user), b.cfg.ViewCap, telemetry.TraceContext{}); err != nil {
			return View{}, nil, fmt.Errorf("cache fill on %s: %w", t.label(idx), err)
		}
		return v, nil, nil
	case v.Version < b.store.Version(user):
		// The cached copy lags this broker's own store: a write acknowledged
		// elsewhere missed this replica (placement divergence during churn,
		// or a fill that raced the write's replication). Serve the freshest
		// provable view and repair the replica in place so the staleness
		// cannot outlive this read.
		v = b.freshestView(t, user, b.ReplicaSet(user))
		_ = conn.putView(user, v, t.view.Epoch, b.pvOf(user), b.cfg.ViewCap, telemetry.TraceContext{})
		return v, nil, nil
	}
	return v, wire, nil
}

// freshestView returns the freshest view of user this broker can prove: its
// own store's view, raised to any newer version cached on the given replica
// servers. The write path updates cached replicas synchronously before
// acknowledging, so a replica can be ahead of this broker's store while the
// originating peer's sync write is still in flight — filling a cache or a
// migration target from the store alone would replace that acknowledged
// data with an older view. Unreachable or empty replicas are skipped; the
// store view is the floor.
func (b *Broker) freshestView(t *serverTable, user uint32, replicas []int) View {
	v := b.currentView(user)
	for _, idx := range replicas {
		conn := t.conn(idx)
		if conn == nil {
			continue
		}
		if rv, ok, err := conn.getView(user, telemetry.TraceContext{}); err == nil && ok && rv.Version > v.Version {
			v = rv
		}
	}
	return v
}

// peerFreshestView asks every live peer broker for its persistent store's
// view of user and returns the newest answer above floor. Every
// acknowledged write is appended to its origin broker's store before the
// ack, so the max over live brokers' stores bounds every acked version —
// a miss-fill that consulted only local state could re-seed a fresh cache
// server below a write acknowledged through a peer moments earlier.
// Best-effort: an unreachable peer is skipped (its acked writes are also
// on the cache replicas the write path updated synchronously).
func (b *Broker) peerFreshestView(user uint32, floor uint64) (View, bool) {
	if b.nBrokers <= 1 {
		return View{}, false
	}
	var best View
	found := false
	for _, p := range b.peers {
		if p == nil || !p.alive.Load() {
			continue
		}
		body, err := p.conn.roundTrip(opViewPull, binary.LittleEndian.AppendUint32(nil, user), telemetry.TraceContext{})
		if err != nil {
			continue
		}
		v, _, err := decodeView(body)
		if err != nil {
			continue
		}
		if v.Version > floor && (!found || v.Version > best.Version) {
			best, found = v, true
		}
	}
	return best, found
}

// raiseSurvivors puts v, the copy of a replica about to be dropped, onto
// every listed survivor. The servers merge it by sequence number, so an
// event only the dropped copy holds — a write acknowledged through a peer
// broker whose sync has not reached this broker's store — outlives the
// drop. Best-effort: an unreachable survivor is left to the ordinary
// drop/refill machinery.
func (b *Broker) raiseSurvivors(t *serverTable, user uint32, survivors []int, v View) {
	if len(v.Events) == 0 {
		return
	}
	pv := b.pvOf(user)
	for _, ridx := range survivors {
		if conn := t.conn(ridx); conn != nil {
			_ = conn.putView(user, v, t.view.Epoch, pv, b.cfg.ViewCap, telemetry.TraceContext{})
		}
	}
}

// pvOf returns user's current placement version (0 when this broker has
// no placement entry for the user yet).
func (b *Broker) pvOf(user uint32) uint64 {
	sh := b.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if meta, ok := sh.views[user]; ok {
		return meta.pv
	}
	return 0
}

// evaluateLocked runs the shared policy for a view just read from serving.
// Caller holds the shard lock; the returned decision is applied outside it.
// Views already at their replication cap skip Algorithm 2 (a create could
// never be applied) and go straight to Algorithm 3, so capped views still
// migrate toward their dominant readers.
func (b *Broker) evaluateLocked(t *serverTable, now int64, meta *viewMeta, view viewpolicy.ViewState, serving topology.MachineID, rep *replicaMeta) viewpolicy.Decision {
	if t.pol.InGrace(rep.createdAt, now) {
		return viewpolicy.Decision{}
	}
	env := brokerEnv{b: b, t: t, meta: meta}
	w := t.pol.WindowOf(rep.log, rep.createdAt, now)
	if len(meta.order) < maxReplicas {
		if d, ok := t.pol.EvaluateReplication(env, view, serving, w); ok {
			return d
		}
	}
	if !t.pol.MatureForMigration(rep.createdAt, now) {
		return viewpolicy.Decision{}
	}
	return t.pol.EvaluateMigration(env, view, serving, w)
}

// applyDecision carries out a placement change: replica-set membership is
// committed under the shard lock first, then the view data moves over the
// network — so a committed replica always fetches fresh data from the WAL
// on a miss and a concurrent write can never leave it stale. serving is the
// index of the replica the decision was evaluated against (the migration
// source). Every applied change is broadcast to peer brokers.
func (b *Broker) applyDecision(now int64, user uint32, serving int, d viewpolicy.Decision) {
	switch d.Op {
	case viewpolicy.OpCreate:
		b.applyCreate(now, user, d)
	case viewpolicy.OpMigrate:
		if b.migrateReplica(now, user, serving, d) {
			b.broadcastPlacement(user)
		}
	case viewpolicy.OpRemove:
		if b.removeReplica(user, b.serverIdxOf(d.Target)) {
			b.evicted.Add(1)
			b.broadcastPlacement(user)
		}
	}
}

func (b *Broker) applyCreate(now int64, user uint32, d viewpolicy.Decision) {
	t := b.table()
	target := b.serverIdxOf(d.Target)
	if !t.placeable(target) {
		return // the decision predates a membership change that retired the slot
	}
	if int(t.load[target].Load()) >= t.capacity(target, b.cfg.ServerCapacity) {
		// Full target: the policy admitted the newcomer over the server's
		// eviction floor, so displace its weakest evictable view (the
		// swap-on-admission form of §3.2 eviction, as the simulator's
		// ensureRoom does). Give up if nothing can move.
		if !b.evictWeakestOn(t, now, target, d.Profit) {
			return
		}
	}
	sh := b.shard(user)
	sh.mu.Lock()
	meta, ok := sh.views[user]
	if !ok || len(meta.order) >= maxReplicas || meta.reps[target] != nil ||
		int(t.load[target].Load()) >= t.capacity(target, b.cfg.ServerCapacity) {
		sh.mu.Unlock()
		return
	}
	existing := append([]int(nil), meta.order...)
	meta.order = append(meta.order, target)
	meta.reps[target] = b.newReplicaMeta(t, now, d.Profit)
	// The new copy absorbs this origin's reads; forget them on the serving
	// replica so the stale window does not trigger duplicate replicas.
	for _, rep := range meta.reps {
		rep.log.ClearOrigin(d.Origin)
	}
	t.load[target].Add(1)
	pv := meta.pv
	sh.mu.Unlock()

	// Seed the new replica with the freshest provable view, not the store
	// view alone — an existing replica can hold an acknowledged write whose
	// peer sync is still in flight, and the new copy must not serve an
	// older view than the copies it joins. A copy that cannot be seeded
	// leaves the set again.
	if conn := t.conn(target); conn == nil ||
		conn.putView(user, b.freshestView(t, user, existing), t.view.Epoch, pv, b.cfg.ViewCap, telemetry.TraceContext{}) != nil {
		b.removeReplica(user, target)
	} else {
		b.replicated.Add(1)
	}
	b.broadcastPlacement(user)
}

// migrateReplica moves one replica without notifying peers; it reports
// whether the replica set changed, so the caller pushes the outcome (bulk
// callers, rebalance and drain, batch it into one frame per peer).
func (b *Broker) migrateReplica(now int64, user uint32, source int, d viewpolicy.Decision) bool {
	t := b.table()
	target := b.serverIdxOf(d.Target)
	if !t.placeable(target) {
		return false
	}
	sh := b.shard(user)
	sh.mu.Lock()
	meta, ok := sh.views[user]
	// The migration source is the replica the policy evaluated — the one
	// that served the read (local or reported) behind this decision.
	if !ok || meta.reps[target] != nil || meta.reps[source] == nil {
		sh.mu.Unlock()
		return false
	}
	meta.order = append(meta.order, target)
	meta.reps[target] = b.newReplicaMeta(t, now, d.Profit)
	t.load[target].Add(1)
	removeLocked(meta, source)
	t.load[source].Add(-1)
	pv := meta.pv
	sh.mu.Unlock()

	// Install the copy on the target before deleting the source, so a
	// concurrent read never finds the view on neither server (drains rely
	// on this ordering for their zero-miss guarantee; a miss in the gap
	// would still be served from the WAL, just more expensively). The copy
	// is the freshest provable view — the source's cached copy can carry an
	// acknowledged write this broker's store has not replicated yet, and
	// deleting the source below would erase it. The bumped placement
	// version rides the put: direct readers holding a pre-migration lease
	// are fenced at the target until they re-lease.
	fv := b.freshestView(t, user, []int{source})
	migrated := true
	if conn := t.conn(target); conn == nil || conn.putView(user, fv, t.view.Epoch, pv, b.cfg.ViewCap, telemetry.TraceContext{}) != nil {
		// The replica set still names target; reads will refill it from
		// the WAL once the server is reachable, or drop it as dead.
		migrated = false
	}
	if conn := t.conn(source); conn != nil {
		_ = conn.deleteView(user)
	}
	if migrated {
		b.migrated.Add(1)
	}
	return true
}

// evictWeakestOn drops the lowest-utility evictable replica on server idx,
// provided its utility is below bar (the admitted newcomer's profit). It
// refreshes the server's eviction floor and reports whether a slot was
// freed. Shard locks are taken one at a time; the deleteView runs outside.
func (b *Broker) evictWeakestOn(t *serverTable, now int64, idx int, bar float64) bool {
	at := b.machineOf(idx)
	minReplicas := t.pol.Config().MinReplicas
	var victim uint32
	worst := viewpolicy.Inf
	found := false
	for si := range b.shards {
		sh := &b.shards[si]
		sh.mu.Lock()
		for user, meta := range sh.views {
			rep := meta.reps[idx]
			if rep == nil || len(meta.order) <= minReplicas {
				continue
			}
			var util float64
			if t.pol.InGrace(rep.createdAt, now) {
				util = rep.estRate
			} else {
				util = t.pol.Utility(b.viewStateLocked(t, meta), at, t.pol.WindowOf(rep.log, rep.createdAt, now))
			}
			if util < worst || (util == worst && (!found || user < victim)) {
				victim, worst, found = user, util, true
			}
		}
		sh.mu.Unlock()
	}
	if !found || worst >= bar || !b.removeReplica(victim, idx) {
		return false
	}
	b.broadcastPlacement(victim)
	b.evicted.Add(1)
	b.polMu.Lock()
	b.evictFloor[at] = worst
	b.polMu.Unlock()
	return true
}

// removeReplica drops server idx from user's replica set (never the last
// copy) and deletes the cached view. It reports whether a replica was
// removed; the caller pushes the new set to peers.
func (b *Broker) removeReplica(user uint32, idx int) bool {
	t := b.table()
	sh := b.shard(user)
	sh.mu.Lock()
	meta, ok := sh.views[user]
	if !ok || len(meta.order) <= 1 || meta.reps[idx] == nil {
		sh.mu.Unlock()
		return false
	}
	removeLocked(meta, idx)
	survivors := append([]int(nil), meta.order...)
	t.load[idx].Add(-1)
	sh.mu.Unlock()
	if conn := t.conn(idx); conn != nil {
		// The dropped copy can be the only one carrying a write that was
		// acknowledged through a peer broker and has not reached this
		// broker's store yet — merge it into the survivors first.
		if dv, ok, err := conn.getView(user, telemetry.TraceContext{}); err == nil && ok {
			b.raiseSurvivors(t, user, survivors, dv)
		}
		_ = conn.deleteView(user)
	}
	return true
}

// dropReplicas removes dead replicas from user's set without contacting
// their servers (they are unreachable); the last copy is always kept. Any
// broker may do this — the drop is broadcast so peers stop routing reads
// to the dead replica too.
func (b *Broker) dropReplicas(user uint32, idxs []int) {
	t := b.table()
	sh := b.shard(user)
	sh.mu.Lock()
	changed := false
	meta, ok := sh.views[user]
	if ok {
		for _, idx := range idxs {
			if len(meta.order) <= 1 || meta.reps[idx] == nil {
				continue
			}
			removeLocked(meta, idx)
			t.load[idx].Add(-1)
			changed = true
		}
	}
	sh.mu.Unlock()
	if changed {
		b.broadcastPlacement(user)
	}
}

// removeLocked unlinks server idx from meta and bumps the placement
// version: every route minted before the removal is now suspect (it may
// name the server the view just left), and the bump is what fences the
// leases still carrying it. Caller holds the shard lock and has verified
// the replica exists.
func removeLocked(meta *viewMeta, idx int) {
	for i, r := range meta.order {
		if r == idx {
			meta.order = append(meta.order[:i], meta.order[i+1:]...)
			break
		}
	}
	delete(meta.reps, idx)
	meta.pv++
}

// Read implements Read(u, L): fetch the views of every user in targets.
func (b *Broker) Read(targets []uint32) ([]View, error) {
	views, _, err := b.readTraced(targets, telemetry.TraceContext{})
	return views, err
}

// readTraced is Read carrying a trace context into every get. Each
// target is planned under its shard lock first (see planRead). Then each
// cache server serving some of them is asked for all of its users in one
// get — the first on the caller's goroutine, every other on its own —
// and each user's answer is settled (see settleRead). wires[i] is the
// wire form of views[i] when the view is a cache server's bytes as they
// arrived, nil when the broker built it.
func (b *Broker) readTraced(targets []uint32, tc telemetry.TraceContext) ([]View, [][]byte, error) {
	for _, u := range targets {
		if u == membership.ReservedUser {
			return nil, nil, fmt.Errorf("read view %d: %w", u, ErrReservedUser)
		}
	}
	t := b.table()
	now := time.Now().Unix()
	leader := b.IsLeader()
	plans := make([]readPlan, len(targets))
	views, wires := make([]View, len(targets)), make([][]byte, len(targets))
	groups := make([]readGroup, 0, min(len(targets), len(t.conns)))
	for i, u := range targets {
		plans[i] = b.planRead(t, now, leader, u)
		idx := plans[i].idx
		if idx < 0 {
			// Every replica lives on a slot this table does not know — a
			// transient cross-epoch race. Serve straight from the WAL and
			// re-home the user.
			b.misses.Add(1)
			b.rehomeStranded(u)
			views[i] = b.currentView(u)
			continue
		}
		g := slices.IndexFunc(groups, func(g readGroup) bool { return g.idx == idx })
		if g < 0 {
			g = len(groups)
			groups = append(groups, readGroup{idx: idx})
		}
		groups[g].at = append(groups[g].at, i)
	}
	var wg sync.WaitGroup
	for _, g := range groups[min(1, len(groups)):] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.fetchGroup(now, g, plans, views, wires, tc)
		}()
	}
	if len(groups) > 0 {
		b.fetchGroup(now, groups[0], plans, views, wires, tc)
	}
	wg.Wait()
	b.reads.Add(1)
	return views, wires, nil
}

// maintainLoop periodically runs the shared policy's maintenance pass, the
// live-system analogue of the paper's hourly storage management (§3.2).
// Only the elected leader maintains — followers' thresholds and floors are
// never consulted because they do not evaluate the policy.
func (b *Broker) maintainLoop() {
	defer b.loops.Done()
	ticker := time.NewTicker(b.cfg.PolicyEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if b.IsLeader() {
				now := time.Now().Unix()
				b.maintainOnce(now)
				// Elastic-membership upkeep rides the same tick: draining
				// servers shed replicas every pass until empty.
				b.rebalanceMu.Lock()
				b.drainOnce(now)
				b.rebalanceMu.Unlock()
			}
		case <-b.stop:
			return
		}
	}
}

// maintainOnce recomputes per-replica utilities, applies the policy's
// per-server plans (dropping negative-utility replicas), and refreshes the
// admission thresholds the read path consults. All decisions are collected
// under shard locks; the deleteView I/O runs outside them.
func (b *Broker) maintainOnce(now int64) {
	t := b.table()
	minReplicas := t.pol.Config().MinReplicas
	entries := make([][]viewpolicy.ViewUtil, len(t.conns))
	for si := range b.shards {
		sh := &b.shards[si]
		sh.mu.Lock()
		for user, meta := range sh.views {
			view := b.viewStateLocked(t, meta)
			evictable := len(meta.order) > minReplicas
			for idx, rep := range meta.reps {
				if idx >= len(entries) {
					continue // slot added by a concurrent, newer epoch
				}
				var util float64
				if t.pol.InGrace(rep.createdAt, now) {
					util = rep.estRate
				} else {
					util = t.pol.Utility(view, b.machineOf(idx), t.pol.WindowOf(rep.log, rep.createdAt, now))
				}
				entries[idx] = append(entries[idx], viewpolicy.ViewUtil{ID: int64(user), Util: util, Evictable: evictable})
			}
		}
		sh.mu.Unlock()
	}

	type removal struct {
		user uint32
		idx  int
	}
	var drops []removal
	thresholds := make([]float64, t.topo.NumMachines())
	floors := make([]float64, t.topo.NumMachines())
	for i := range floors {
		floors[i] = viewpolicy.Inf
	}
	for idx := range t.conns {
		if !t.placeable(idx) {
			continue // draining/dead slots are emptied by drainOnce, not priced
		}
		plan := t.pol.PlanServerMaintenance(entries[idx], int(t.load[idx].Load()), t.capacity(idx, b.cfg.ServerCapacity))
		for _, id := range plan.Remove {
			drops = append(drops, removal{user: uint32(id), idx: idx})
		}
		m := b.machineOf(idx)
		thresholds[m] = plan.Threshold
		floors[m] = plan.EvictFloor
	}
	var changed []uint32
	for _, r := range drops {
		if b.removeReplica(r.user, r.idx) {
			b.evicted.Add(1)
			changed = append(changed, r.user)
		}
	}
	b.broadcastPlacement(changed...)
	b.polMu.Lock()
	copy(b.thresholds, thresholds)
	copy(b.evictFloor, floors)
	t.pol.DisseminateThresholds(b.thresholds, b.minThr)
	b.polMu.Unlock()
}

// ReplicaCount returns the current replication degree of user's view.
func (b *Broker) ReplicaCount(user uint32) int {
	sh := b.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	meta, ok := sh.views[user]
	if !ok {
		return 1
	}
	return len(meta.order)
}

// ReplicaSet returns the cache-server indices currently holding user's
// view, in replica-set order (home first), or nil if this broker has no
// entry for the user yet. In a converged multi-broker cluster every broker
// returns the same set.
func (b *Broker) ReplicaSet(user uint32) []int {
	sh := b.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	meta, ok := sh.views[user]
	if !ok {
		return nil
	}
	return append([]int(nil), meta.order...)
}

// BrokerStats summarizes broker activity.
type BrokerStats struct {
	Reads      int64
	Writes     int64
	Replicated int64
	Evicted    int64
	Migrated   int64
	Misses     int64
	// Checkpoints and CompactedSegments count the durability subsystem's
	// snapshots and the WAL segments compaction deleted.
	Checkpoints       int64
	CompactedSegments int64
	// CatchupRecords counts WAL records this broker recovered from peers
	// via the opLogCursors/opLogPull catch-up protocol.
	CatchupRecords int64
	// Epoch is the broker's current membership epoch.
	Epoch uint64
	// LeaseGrants counts direct-read leases this broker issued.
	LeaseGrants int64
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() BrokerStats {
	st := BrokerStats{
		Reads:          b.reads.Load(),
		Writes:         b.writes.Load(),
		Replicated:     b.replicated.Load(),
		Evicted:        b.evicted.Load(),
		Migrated:       b.migrated.Load(),
		Misses:         b.misses.Load(),
		CatchupRecords: b.catchup.Load(),
		Epoch:          b.Epoch(),
		LeaseGrants:    b.leases.Load(),
	}
	if b.ckpt != nil {
		st.Checkpoints = b.ckpt.Checkpoints()
		st.CompactedSegments = b.ckpt.CompactedSegments()
	}
	return st
}

func (b *Broker) handle(tc telemetry.TraceContext, msgType uint8, body []byte) ([][]byte, error) {
	switch msgType {
	case opRead:
		return b.handleRead(tc, body)
	case opWrite:
		return b.handleWrite(tc, body)
	case opBrokerStats:
		start := time.Now()
		resp := appendBrokerStats(nil, b.Stats())
		b.statsHist.Observe(time.Since(start))
		return [][]byte{resp}, nil
	case opLeaseGet:
		users, err := decodeReadRequest(body)
		if err != nil {
			return nil, errors.New("bad lease request")
		}
		start := time.Now()
		grants := make([]Lease, 0, len(users))
		for _, u := range users {
			// A user that cannot be leased now (reserved, or no reachable
			// replica) gets no grant; its reads stay on the broker path.
			if l, err := b.leaseFor(u); err == nil {
				grants = append(grants, l)
			}
		}
		b.leaseHist.Observe(time.Since(start))
		return [][]byte{encodeLeaseGrants(grants)}, nil
	case opPlacementPull:
		return [][]byte{encodePlacementTable(b.placementEntries())}, nil
	case opPlacementBatch:
		entries, err := decodePlacementTable(body)
		if err != nil {
			return nil, fmt.Errorf("bad placement batch: %w", err)
		}
		for _, e := range entries {
			b.applyPlacementEntry(e.user, e.order)
		}
		return nil, nil
	case opAccessReport:
		sender, reads, writes, err := decodeAccessReport(body)
		if err != nil || int(sender) >= b.nBrokers || int(sender) == b.selfIdx {
			return nil, errors.New("bad access report")
		}
		b.applyAccessReport(int(sender), reads, writes)
		return nil, nil
	case opSyncWrite:
		user, seq, at, payload, err := decodeSyncWrite(body)
		if err != nil {
			return nil, errors.New("bad sync write")
		}
		return nil, b.applySyncWrite(user, seq, at, payload, tc)
	case opMembershipGet:
		return [][]byte{encodeMembershipInfo(b.Membership())}, nil
	case opServerAdd, opServerDrain, opServerRemove:
		return b.handleAdmin(msgType, body)
	case opViewPull:
		if len(body) < 4 {
			return nil, errors.New("short view pull")
		}
		return [][]byte{encodeView(nil, b.currentView(binary.LittleEndian.Uint32(body[0:4])))}, nil
	case opLogCursors:
		return [][]byte{encodeLogCursors(b.store.Cursors())}, nil
	case opLogPull:
		origin, from, max, err := decodeLogPull(body)
		if err != nil {
			return nil, errors.New("bad log pull")
		}
		if max == 0 || max > maxPullRecords {
			max = maxPullRecords
		}
		return [][]byte{encodeLogRecords(b.store.RecordsAfter(origin, from, int(max), maxPullBytes))}, nil
	default:
		return nil, errors.New("unknown op")
	}
}

// handleRead serves one opRead request: start the broker's span for
// sampled requests, fetch the views, and record the op latency. The span's
// decode/execute/encode stages plus the cache servers' child spans give a
// sampled read its full breakdown.
func (b *Broker) handleRead(tc telemetry.TraceContext, body []byte) ([][]byte, error) {
	start := time.Now()
	sp := b.tel.StartSpan(tc, "broker.read")
	defer sp.End()
	targets, err := decodeReadRequest(body)
	if err != nil {
		return nil, fmt.Errorf("bad read request: %w", err)
	}
	sp.Stage("decode")
	views, wires, err := b.readTraced(targets, sp.Context())
	if err != nil {
		return nil, err
	}
	sp.Stage("execute")
	// Views the cache servers answered with go out as the bytes they
	// arrived in; only a view the broker built (a miss fill, a repair,
	// the WAL) is encoded. The epoch trailer lets clients notice a
	// membership change without polling.
	for i, w := range wires {
		if w == nil {
			wires[i] = encodeView(make([]byte, 0, viewLen(views[i])), views[i])
		}
	}
	resp := encodeReadResponse(wires, b.Epoch())
	sp.Stage("encode")
	b.readHist.Observe(time.Since(start))
	return resp, nil
}

// handleWrite serves one opWrite request; the span's stage breakdown
// (decode, wal, replicate, fanout, encode) comes partly from writeTraced.
func (b *Broker) handleWrite(tc telemetry.TraceContext, body []byte) ([][]byte, error) {
	start := time.Now()
	if len(body) < 4 {
		return nil, errors.New("short write request")
	}
	sp := b.tel.StartSpan(tc, "broker.write")
	defer sp.End()
	user := binary.LittleEndian.Uint32(body[0:4])
	sp.Stage("decode")
	seq, err := b.writeTraced(user, body[4:], sp)
	if err != nil {
		return nil, err
	}
	resp := appendEpochTrailer(binary.LittleEndian.AppendUint64(nil, seq), b.Epoch())
	sp.Stage("encode")
	b.writeHist.Observe(time.Since(start))
	return [][]byte{resp}, nil
}

// applySyncWrite applies one replicated event to this broker's log; a
// sampled origin write leaves a span here, so the trace shows which
// peers its replication touched.
func (b *Broker) applySyncWrite(user uint32, seq uint64, at int64, payload []byte, tc telemetry.TraceContext) error {
	start := time.Now()
	sp := b.tel.StartSpan(tc, "broker.sync_write")
	p := make([]byte, len(payload))
	copy(p, payload)
	applied, err := b.store.ApplyReplicated(wal.Record{Seq: seq, User: user, At: at, Payload: p})
	sp.Stage("apply")
	sp.End()
	b.syncWriteHist.Observe(time.Since(start))
	if err != nil {
		return fmt.Errorf("replicate write: %w", err)
	}
	if applied && user == membership.ReservedUser {
		// A replicated membership transition: install it if newer.
		b.applyMembershipPayload(p)
	}
	return nil
}

// handleAdmin executes one membership mutation. Followers forward the
// request to the leader broker verbatim and relay its answer, an error
// answer included, so an operator (or dsctl) may point at any broker of
// the cluster. Successful mutations answer with the new membership view
// and per-slot loads.
func (b *Broker) handleAdmin(msgType uint8, body []byte) ([][]byte, error) {
	if !b.IsLeader() {
		leader := b.peers[b.Leader()]
		if leader == nil || !leader.alive.Load() {
			return nil, errors.New("membership change: no reachable leader")
		}
		resp, err := leader.conn.roundTrip(msgType, body, telemetry.TraceContext{})
		if err != nil && !errors.Is(err, ErrRemote) {
			return nil, fmt.Errorf("forward membership change to leader: %w", err)
		}
		return [][]byte{resp}, err
	}
	var err error
	switch msgType {
	case opServerAdd:
		var info membership.ServerInfo
		if info, err = membership.DecodeServerInfo(body); err == nil {
			_, err = b.AddServer(info)
		}
	case opServerDrain:
		_, err = b.DrainServer(string(body))
	case opServerRemove:
		_, err = b.RemoveServer(string(body))
	}
	if err != nil {
		return nil, err
	}
	return [][]byte{encodeMembershipInfo(b.Membership())}, nil
}

// Close stops the broker: listener, controller and sync loops, in-flight
// peer broadcasts, server and peer connections, and the persistent store.
func (b *Broker) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	close(b.stop)
	b.loops.Wait()
	b.bgMu.Lock()
	b.bgDone = true
	b.bgMu.Unlock()
	b.bg.Wait()
	err := b.srv.close()
	for _, sc := range b.table().conns {
		if sc != nil {
			sc.Close()
		}
	}
	for _, p := range b.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	if b.ckpt != nil {
		// A parting checkpoint makes the next start a pure snapshot load:
		// everything appended since the last periodic pass is covered.
		if _, cerr := b.ckpt.CheckpointNow(); err == nil {
			err = cerr
		}
	}
	if cerr := b.store.Close(); err == nil {
		err = cerr
	}
	return err
}
