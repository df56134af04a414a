// Command dynasore-node runs one node of the live DynaSoRe cluster: either
// a cache server holding views in memory, or a broker executing the
// Read/Write API against a set of cache servers with a WAL-backed
// persistent store. Both roles speak the cluster's one multiplexed wire
// protocol, the one pkg/dynasore clients use. Brokers drive replica placement with the shared
// DynaSoRe policy engine over the configured cluster topology.
//
// Usage:
//
//	dynasore-node -role server -addr 127.0.0.1:7001
//	dynasore-node -role broker -addr 127.0.0.1:7000 \
//	    -servers 127.0.0.1:7001,127.0.0.1:7002 -data /tmp/dynasore -preferred 0
//
// Explicit topology (zone:rack per node) instead of -preferred:
//
//	dynasore-node -role broker -addr 127.0.0.1:7000 \
//	    -servers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	    -broker-pos 0:0 -server-pos 0:0,1:0,1:1 -data /tmp/dynasore
//
// Multi-broker cluster (the paper's broker-per-front-end-cluster): every
// broker gets the same -peers list (all broker addresses, including its
// own), the same -peers-pos (one zone:rack per peer), and its own -self
// index. Each broker needs its own -data directory; writes are replicated
// between the brokers' logs:
//
//	dynasore-node -role broker -addr 127.0.0.1:7000 \
//	    -servers 127.0.0.1:7101,127.0.0.1:7102 -server-pos 0:1,1:1 \
//	    -peers 127.0.0.1:7000,127.0.0.1:7001 -peers-pos 0:0,1:0 -self 0 \
//	    -data /tmp/dynasore-b0
//
// Durability/recovery: -checkpoint-every snapshots the persistent store so
// a restart replays only the WAL tail, and -compact deletes WAL segments a
// checkpoint fully covers. A restarted broker of a multi-broker cluster
// additionally pulls the records it missed from its peers (per-origin
// catch-up) without waiting for new writes:
//
//	dynasore-node -role broker ... -data /tmp/dynasore-b0 \
//	    -checkpoint-every 30s -compact 4
//
// Elastic membership: a fresh cache server can join a RUNNING cluster —
// -join names any broker, and the server registers itself (position from
// -join-pos, capacity from -join-capacity) once it is listening. The
// brokers bump the membership epoch, rebalance the rendezvous homes, and
// start placing replicas on the newcomer:
//
//	dynasore-node -role server -addr 127.0.0.1:7005 \
//	    -join 127.0.0.1:7000 -join-pos 2:1
//
// Observability: -ops-addr starts an HTTP listener on any node serving
// Prometheus-text /metrics (per-stage latency histograms plus the broker's
// lifetime counters), /healthz, /debug/traces (recent sampled traces as
// JSON), and /debug/pprof. -trace-slow tunes the slow-trace log threshold
// and -wal-sync-every turns on WAL group commit so fsync latency shows up
// in dynasore_wal_fsync_seconds:
//
//	dynasore-node -role broker ... -ops-addr 127.0.0.1:9100 \
//	    -trace-slow 50ms -wal-sync-every 8
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynasore/internal/promtext"
	"dynasore/internal/telemetry"
	"dynasore/pkg/dynasore"
)

func main() {
	var (
		role        = flag.String("role", "server", "node role: server or broker")
		addr        = flag.String("addr", "127.0.0.1:7001", "listen address")
		servers     = flag.String("servers", "", "comma-separated cache server addresses (broker)")
		dataDir     = flag.String("data", "dynasore-data", "persistent store directory (broker)")
		preferred   = flag.Int("preferred", -1, "index of the broker-local cache server (-1: none; ignored when -server-pos is set)")
		brokerPos   = flag.String("broker-pos", "", "broker position as zone:rack (with -server-pos)")
		serverPos   = flag.String("server-pos", "", "comma-separated zone:rack position per cache server")
		viewCap     = flag.Int("viewcap", 64, "events kept per view")
		policyEvery = flag.Duration("policy-every", 0, "placement maintenance interval (0: default 5s)")
		capacity    = flag.Int("capacity", 0, "max views the policy places per cache server (0: unbounded)")
		peersFlag   = flag.String("peers", "", "comma-separated addresses of every broker of the cluster, including this one (multi-broker)")
		peersPos    = flag.String("peers-pos", "", "comma-separated zone:rack position per peer broker (required with -peers; identical on every broker)")
		self        = flag.Int("self", 0, "this broker's index in -peers")
		syncEvery   = flag.Duration("sync-every", 0, "peer-sync interval: probes, election, placement sync (0: default 1s)")
		ckptEvery   = flag.Duration("checkpoint-every", 0, "checkpoint the persistent store at this interval so restarts replay only the WAL tail (0: disabled)")
		compact     = flag.Int("compact", 0, "delete WAL segments once this many are fully covered by a checkpoint (0: keep all; needs -checkpoint-every)")
		join        = flag.String("join", "", "broker address to register this cache server with, joining a running cluster (server role)")
		joinPos     = flag.String("join-pos", "0:0", "this server's zone:rack position, registered on -join")
		joinCap     = flag.Int("join-capacity", 0, "max views the policy may place on this server, registered on -join (0: broker default)")
		opsAddr     = flag.String("ops-addr", "", "ops HTTP listen address serving /metrics, /healthz, /debug/traces, and /debug/pprof (empty: disabled)")
		traceSlow   = flag.Duration("trace-slow", 0, "log sampled spans slower than this to the slow-trace log (0: default 100ms)")
		walSync     = flag.Int("wal-sync-every", 0, "fsync the broker's WAL after every N-th append — group commit (0: trust the OS page cache)")
	)
	flag.Parse()
	if err := run(config{
		role: *role, addr: *addr, servers: *servers, dataDir: *dataDir,
		preferred: *preferred, brokerPos: *brokerPos, serverPos: *serverPos,
		viewCap: *viewCap, policyEvery: *policyEvery, capacity: *capacity,
		peers: *peersFlag, peersPos: *peersPos, self: *self, syncEvery: *syncEvery,
		checkpointEvery: *ckptEvery, compactAfter: *compact,
		join: *join, joinPos: *joinPos, joinCapacity: *joinCap,
		opsAddr: *opsAddr, traceSlow: *traceSlow, walSyncEvery: *walSync,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dynasore-node:", err)
		os.Exit(1)
	}
}

type config struct {
	role, addr, servers, dataDir string
	preferred                    int
	brokerPos, serverPos         string
	viewCap                      int
	policyEvery                  time.Duration
	capacity                     int
	peers, peersPos              string
	self                         int
	syncEvery                    time.Duration
	checkpointEvery              time.Duration
	compactAfter                 int
	join, joinPos                string
	joinCapacity                 int
	opsAddr                      string
	traceSlow                    time.Duration
	walSyncEvery                 int
}

// serveOps starts the node's ops HTTP listener: Prometheus-text /metrics
// (process telemetry plus any role-specific extra series), /healthz,
// /debug/traces, and /debug/pprof. It returns a shutdown func, or an
// error if the address cannot be bound.
func serveOps(addr string, extra ...func(*strings.Builder)) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops listener: %w", err)
	}
	srv := &http.Server{Handler: telemetry.Default().Handler(extra...)}
	go srv.Serve(ln)
	fmt.Printf("ops listening on http://%s/metrics\n", ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// brokerOpsRenderer appends the broker's lifetime counters to the ops
// /metrics page, alongside the process-wide histograms.
func brokerOpsRenderer(b *dynasore.Broker) func(*strings.Builder) {
	return func(sb *strings.Builder) {
		st := b.Stats()
		const ops = "dynasore_broker_ops_total"
		promtext.WriteHeader(sb, ops, "counter", "Broker lifetime operation counts by kind.")
		promtext.WriteInt(sb, ops, promtext.Labels("op", "read"), st.Reads)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "write"), st.Writes)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "replicate"), st.Replicated)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "evict"), st.Evicted)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "migrate"), st.Migrated)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "miss"), st.Misses)
		promtext.WriteInt(sb, ops, promtext.Labels("op", "lease_grant"), st.LeaseGrants)
		promtext.WriteHeader(sb, "dynasore_membership_epoch", "gauge", "Current membership epoch of this broker.")
		promtext.WriteUint(sb, "dynasore_membership_epoch", "", st.Epoch)
	}
}

// serverOpsRenderer appends the cache server's view count to the ops
// /metrics page.
func serverOpsRenderer(s *dynasore.CacheServer) func(*strings.Builder) {
	return func(sb *strings.Builder) {
		promtext.WriteHeader(sb, "dynasore_server_views", "gauge", "Views currently held by this cache server.")
		promtext.WriteInt(sb, "dynasore_server_views", "", int64(s.NumViews()))
	}
}

// parsePeers builds the multi-broker peer list from -peers/-peers-pos, or
// returns nil when -peers was not given (single-broker cluster). The
// position table must be given in full: leader election assumes every
// broker evaluates the same (position, index) order, so a partial table —
// e.g. each broker knowing only its own position — would make elections
// disagree and could leave the cluster with no leader at all.
func parsePeers(peers, peersPos string, self int) ([]dynasore.BrokerPeer, error) {
	if peers == "" {
		if peersPos != "" {
			return nil, fmt.Errorf("-peers-pos requires -peers")
		}
		return nil, nil
	}
	if peersPos == "" {
		return nil, fmt.Errorf("-peers requires -peers-pos (the full zone:rack table, identical on every broker)")
	}
	addrs := strings.Split(peers, ",")
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("-self %d out of range for %d peers", self, len(addrs))
	}
	parts := strings.Split(peersPos, ",")
	if len(parts) != len(addrs) {
		return nil, fmt.Errorf("-peers-pos has %d positions for %d peers", len(parts), len(addrs))
	}
	out := make([]dynasore.BrokerPeer, len(addrs))
	for i, a := range addrs {
		pos, err := parsePosition(strings.TrimSpace(parts[i]))
		if err != nil {
			return nil, err
		}
		out[i] = dynasore.BrokerPeer{Addr: strings.TrimSpace(a), Pos: pos}
	}
	return out, nil
}

// joinCluster registers a freshly started cache server with a broker of a
// running cluster.
func joinCluster(broker, selfAddr string, pos dynasore.Position, capacity int) (dynasore.Membership, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := dynasore.Dial(ctx, broker)
	if err != nil {
		return dynasore.Membership{}, err
	}
	defer cl.Close()
	return cl.AddServer(ctx, selfAddr, pos, capacity)
}

// parsePosition parses "zone:rack".
func parsePosition(s string) (dynasore.Position, error) {
	var p dynasore.Position
	if _, err := fmt.Sscanf(s, "%d:%d", &p.Zone, &p.Rack); err != nil {
		return p, fmt.Errorf("bad position %q (want zone:rack): %w", s, err)
	}
	return p, nil
}

// parsePlacement builds the broker's cluster topology from the position
// flags, or returns nil when none were given (the Preferred default
// applies).
func parsePlacement(brokerPos, serverPos string) (*dynasore.Placement, error) {
	if serverPos == "" {
		if brokerPos != "" {
			return nil, fmt.Errorf("-broker-pos requires -server-pos")
		}
		return nil, nil
	}
	p := &dynasore.Placement{}
	if brokerPos != "" {
		pos, err := parsePosition(brokerPos)
		if err != nil {
			return nil, err
		}
		p.Broker = pos
	}
	for _, s := range strings.Split(serverPos, ",") {
		pos, err := parsePosition(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		p.Servers = append(p.Servers, pos)
	}
	return p, nil
}

func run(c config) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	if c.traceSlow > 0 {
		telemetry.Default().SetSlowThreshold(c.traceSlow)
	}
	switch c.role {
	case "server":
		s, err := dynasore.ListenCacheServer(c.addr)
		if err != nil {
			return err
		}
		fmt.Printf("cache server listening on %s\n", s.Addr())
		if c.opsAddr != "" {
			shutdown, err := serveOps(c.opsAddr, serverOpsRenderer(s))
			if err != nil {
				s.Close()
				return err
			}
			defer shutdown()
		}
		if c.join != "" {
			// Register with the running cluster: the broker (any broker —
			// followers forward to the leader) bumps the membership epoch
			// and this server starts taking its rendezvous share of homes.
			pos, err := parsePosition(c.joinPos)
			if err != nil {
				s.Close()
				return err
			}
			m, err := joinCluster(c.join, s.Addr(), pos, c.joinCapacity)
			if err != nil {
				s.Close()
				return fmt.Errorf("join cluster via %s: %w", c.join, err)
			}
			fmt.Printf("joined cluster at epoch %d (%d servers active)\n", m.Epoch, m.NumActive())
		}
		<-stop
		return s.Close()
	case "broker":
		if c.servers == "" {
			return fmt.Errorf("broker needs -servers")
		}
		placement, err := parsePlacement(c.brokerPos, c.serverPos)
		if err != nil {
			return err
		}
		peers, err := parsePeers(c.peers, c.peersPos, c.self)
		if err != nil {
			return err
		}
		addrs := strings.Split(c.servers, ",")
		b, err := dynasore.ListenBroker(dynasore.BrokerConfig{
			Addr:             c.addr,
			CacheServerAddrs: addrs,
			DataDir:          c.dataDir,
			Placement:        placement,
			Preferred:        c.preferred,
			ViewCap:          c.viewCap,
			PolicyEvery:      c.policyEvery,
			ServerCapacity:   c.capacity,
			Peers:            peers,
			Self:             c.self,
			SyncEvery:        c.syncEvery,
			CheckpointEvery:  c.checkpointEvery,
			CompactAfter:     c.compactAfter,
			WALSyncEvery:     c.walSyncEvery,
		})
		if err != nil {
			return err
		}
		if c.opsAddr != "" {
			shutdown, err := serveOps(c.opsAddr, brokerOpsRenderer(b))
			if err != nil {
				b.Close()
				return err
			}
			defer shutdown()
		}
		if from, replayed := b.Recovery(); from {
			fmt.Printf("recovered from checkpoint, replayed %d WAL records\n", replayed)
		}
		if len(peers) > 1 {
			fmt.Printf("broker %d/%d listening on %s (%d cache servers, leader: broker %d)\n",
				c.self, len(peers), b.Addr(), len(addrs), b.Leader())
		} else {
			fmt.Printf("broker listening on %s (%d cache servers)\n", b.Addr(), len(addrs))
		}
		<-stop
		return b.Close()
	default:
		return fmt.Errorf("unknown role %q", c.role)
	}
}
