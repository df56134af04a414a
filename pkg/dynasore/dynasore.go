// Package dynasore is the public client API of the DynaSoRe middleware: the
// paper's tiny Read(u, L) / Write(u) interface (§3.1) behind one Store
// facade.
//
// ClusterClient is the one implementation of Store. It talks to brokers
// over the cluster's one wire protocol: a versioned hello plus per-request
// IDs let many requests multiplex concurrently over each pooled
// connection, and a sampled request's trace context rides its frame. Dial
// connects it to one broker; DialCluster to every broker of a multi-broker
// cluster, where reads round-robin across brokers, each user's writes
// stick to one broker, and requests fail over when a broker dies.
//
// Engine (see Open) runs a whole deployment — cache servers, a broker, and
// its WAL-backed persistent store — inside the calling process, for
// embedding and tests, and serves it through an embedded ClusterClient.
//
// Server-side nodes for standalone deployments are started with
// ListenCacheServer and ListenBroker; both speak the same protocol. A
// multi-broker cluster — the paper's one-broker-per-front-end-cluster
// deployment — is a set of ListenBroker nodes given the same Peers list:
// they share the cache servers and placement state, elect the
// smallest-position broker to run the placement policy over the whole
// cluster's traffic, and replicate every durable write between their
// write-ahead logs.
package dynasore

import (
	"context"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
	"dynasore/internal/viewpolicy"
)

// View is a producer-pivoted view: one user's latest events, oldest first,
// plus a version (the WAL sequence number of the newest event).
type View struct {
	Version uint64
	Events  [][]byte
}

// Stats summarizes broker activity.
type Stats struct {
	// Reads and Writes count completed API calls.
	Reads  int64
	Writes int64
	// Replicated, Evicted, and Migrated count the placement policy's
	// replica creations, removals, and migrations (§3.2, Algorithms 2–3).
	Replicated int64
	Evicted    int64
	Migrated   int64
	// Misses counts cache misses refilled from the persistent store (§3.3).
	Misses int64
	// Checkpoints and CompactedSegments count the durability subsystem's
	// activity: snapshots of the persistent store taken, and WAL segments
	// deleted because a snapshot fully covered them (zero unless the
	// broker runs with CheckpointEvery set).
	Checkpoints       int64
	CompactedSegments int64
	// CatchupRecords counts WAL records the broker recovered from its
	// peers via the per-origin catch-up protocol after missing them —
	// e.g. while it was down.
	CatchupRecords int64
	// LeaseGrants counts direct-read leases the broker issued; DirectReads
	// and DirectStale count the fast path's outcomes — views served
	// client → cache server without the broker, and direct attempts that
	// fenced or failed back to the broker path. The direct counters are
	// the reporting client's own, zero unless it was dialed
	// WithDirectReads.
	LeaseGrants int64
	DirectReads int64
	DirectStale int64
	// Epoch is the broker's current membership epoch: it advances every
	// time a cache server is added, drained, or removed.
	Epoch uint64
}

// Store is the DynaSoRe API. Implementations are safe for concurrent use.
type Store interface {
	// Read fetches the views of every user in targets, in order: the
	// paper's Read(u, L).
	Read(ctx context.Context, targets []uint32) ([]View, error)
	// Write appends payload to user's view and returns its sequence
	// number: the paper's Write(u).
	Write(ctx context.Context, user uint32, payload []byte) (uint64, error)
	// Stats returns a snapshot of the serving broker's counters.
	Stats(ctx context.Context) (Stats, error)
	// Close releases the backend's resources.
	Close() error
}

func fromClusterView(v cluster.View) View {
	return View{Version: v.Version, Events: v.Events}
}

func fromClusterViews(vs []cluster.View) []View {
	out := make([]View, len(vs))
	for i, v := range vs {
		out[i] = fromClusterView(v)
	}
	return out
}

func fromClusterStats(st cluster.BrokerStats) Stats {
	return Stats{
		Reads:             st.Reads,
		Writes:            st.Writes,
		Replicated:        st.Replicated,
		Evicted:           st.Evicted,
		Migrated:          st.Migrated,
		Misses:            st.Misses,
		Checkpoints:       st.Checkpoints,
		CompactedSegments: st.CompactedSegments,
		CatchupRecords:    st.CatchupRecords,
		LeaseGrants:       st.LeaseGrants,
		Epoch:             st.Epoch,
	}
}

// ServerState is the lifecycle state of one cache-server slot of the
// cluster membership.
type ServerState uint8

// Slot lifecycle: active servers hold replicas and receive new homes; a
// draining server stays readable while its replicas migrate out; a dead
// slot is the tombstone of a removed server (indices stay stable).
const (
	ServerActive ServerState = iota + 1
	ServerDraining
	ServerDead
)

// String returns the operator-facing state name.
func (s ServerState) String() string {
	return membership.State(s).String()
}

// ServerEntry describes one cache-server slot of the cluster membership:
// its address, datacenter position, placement capacity, lifecycle state,
// and how many view replicas the answering broker currently accounts to
// it (the number an operator watches reach zero during a drain).
type ServerEntry struct {
	Addr     string
	Pos      Position
	Capacity int
	State    ServerState
	Replicas int64
}

// Membership is an epoch-versioned snapshot of the cluster's cache-server
// set — the elastic-membership registry every broker of the cluster
// converges on.
type Membership struct {
	Epoch   uint64
	Servers []ServerEntry
}

// NumActive counts the servers currently accepting new homes and
// replicas.
func (m Membership) NumActive() int {
	n := 0
	for _, s := range m.Servers {
		if s.State == ServerActive {
			n++
		}
	}
	return n
}

func fromClusterMembership(info cluster.MembershipInfo) Membership {
	out := Membership{Epoch: info.View.Epoch, Servers: make([]ServerEntry, len(info.View.Servers))}
	for i, s := range info.View.Servers {
		out.Servers[i] = ServerEntry{
			Addr:     s.Addr,
			Pos:      Position{Zone: s.Zone, Rack: s.Rack},
			Capacity: s.Capacity,
			State:    ServerState(s.State),
		}
		if i < len(info.Loads) {
			out.Servers[i].Replicas = info.Loads[i]
		}
	}
	return out
}

// Admin is the elastic-membership control surface: inspect the
// epoch-versioned cache-server registry and grow, drain, or shrink the
// cluster while it serves traffic. ClusterClient (and so Engine)
// implements it; a client may point at any broker — mutations are
// forwarded to the leader transparently. The safe decommissioning
// sequence is DrainServer, wait for the server's Replicas count to reach
// zero, then RemoveServer.
type Admin interface {
	// Membership returns the current epoch-versioned cache-server set.
	Membership(ctx context.Context) (Membership, error)
	// AddServer admits the cache server at addr, positioned in the
	// datacenter tree, with the given placement capacity (0 = broker
	// default). Existing views re-home only in their fair rendezvous
	// share.
	AddServer(ctx context.Context, addr string, pos Position, capacity int) (Membership, error)
	// DrainServer starts decommissioning addr: still readable, no new
	// placements, replicas migrated out by the leader's maintenance pass.
	DrainServer(ctx context.Context, addr string) (Membership, error)
	// RemoveServer retires addr's slot for good.
	RemoveServer(ctx context.Context, addr string) (Membership, error)
}

// Position places a node in the datacenter tree: a zone (intermediate
// switch) and a rack within that zone. Nodes sharing a position hang off
// the same rack switch.
type Position = cluster.Position

// Placement positions a broker (Broker) and its cache servers (Servers[i]
// is the position of the i-th cache server) in the datacenter tree; the
// placement policy scores replica locations by the resulting network
// distances.
type Placement = cluster.Placement

// PolicyConfig tunes the shared placement policy (§3, Algorithms 2–3) that
// drives replica creation, migration, and eviction on the broker. Zero
// fields assume live-cluster defaults: an 8×1s statistics window, no grace
// period, and an admission profit floor of 1000 traffic-units/hour (a
// handful of reads inside the window replicates a view).
type PolicyConfig struct {
	// Slots and SlotSeconds configure the rotating access counters.
	Slots       int
	SlotSeconds int64
	// GraceSeconds protects fresh replicas from eviction and migration
	// (negative: none — the live default).
	GraceSeconds int64
	// DecisionSeconds is the minimum observation span before a replica may
	// be removed or migrated.
	DecisionSeconds int64
	// PaybackHours is how quickly a new replica's gain must amortize its
	// transfer cost.
	PaybackHours float64
	// AdmissionMargin and AdmissionEpsilon are the relative and absolute
	// profit bars for creating a replica.
	AdmissionMargin  float64
	AdmissionEpsilon float64
	// MinReplicas is the durability floor: views with at most this many
	// copies are never evicted.
	MinReplicas int
}

func (p PolicyConfig) toCluster() viewpolicy.Config {
	return viewpolicy.Config{
		Slots:            p.Slots,
		SlotSeconds:      p.SlotSeconds,
		GraceSeconds:     p.GraceSeconds,
		DecisionSeconds:  p.DecisionSeconds,
		PaybackHours:     p.PaybackHours,
		AdmissionMargin:  p.AdmissionMargin,
		AdmissionEpsilon: p.AdmissionEpsilon,
		MinReplicas:      p.MinReplicas,
	}
}
