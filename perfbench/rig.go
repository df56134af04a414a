package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"dynasore/internal/cluster"
	"dynasore/internal/gateway"
	"dynasore/internal/gwconfig"
	"dynasore/internal/telemetry"
	"dynasore/pkg/dynasore"
)

// clients is the closed-loop client count; every phase spreads its ops over
// this many Store clients.
const clients = 2

// gatewayToken is the bearer token the benchmark's gateway accepts.
const gatewayToken = "perfbench"

// rig is one in-process cluster on the fixed layout: four cache servers,
// one or two brokers with their own WALs, optionally a gateway, and the
// benchmark's Store clients. With relays, every broker→server,
// client→server and broker↔broker link runs through a byte-counting relay.
type rig struct {
	w         *workload
	servers   []*cluster.Server
	brokers   []*cluster.Broker
	brokerTel []*telemetry.Node
	walDirs   []string
	relays    []*relay

	cluster []*dynasore.ClusterClient // the cluster clients, to close
	clients []dynasore.Store          // what ops are sent through

	gwServer *http.Server
	gwLn     net.Listener
	gwDone   chan struct{}
}

// boot starts the cluster for w with its WALs under dir.
func boot(ctx context.Context, w *workload, dir string, relays bool) (r *rig, err error) {
	r = &rig{w: w}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	addrs := make([]string, len(serverLayout))
	for i, pos := range serverLayout {
		s, err := cluster.NewServer("127.0.0.1:0")
		if err != nil {
			return r, err
		}
		r.servers = append(r.servers, s)
		addrs[i] = s.Addr()
		if relays {
			rl, err := newRelay(s.Addr(), classify(frontEnd, pos), false)
			if err != nil {
				return r, err
			}
			r.relays = append(r.relays, rl)
			addrs[i] = rl.addr()
		}
	}

	lns := make([]net.Listener, w.brokers)
	var peers []cluster.PeerInfo
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return r, err
		}
		lns[i] = ln
		peerAddr := ln.Addr().String()
		if relays && w.brokers > 1 {
			rl, err := newRelay(peerAddr, classify(frontEnd, frontEnd), true)
			if err != nil {
				closeAll(lns)
				return r, err
			}
			r.relays = append(r.relays, rl)
			peerAddr = rl.addr()
		}
		peers = append(peers, cluster.PeerInfo{Addr: peerAddr, Pos: frontEnd})
	}
	if w.brokers == 1 {
		peers = nil
	}
	capacity := int(math.Ceil((1 + extraMemory) * float64(w.users) / float64(len(serverLayout))))
	var brokerAddrs []string
	for i, ln := range lns {
		walDir := filepath.Join(dir, fmt.Sprintf("broker-%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			closeAll(lns[i:])
			return r, err
		}
		tel := telemetry.New()
		b, err := cluster.NewBroker(cluster.BrokerConfig{
			Listener:        ln,
			ServerAddrs:     addrs,
			Placement:       &cluster.Placement{Broker: frontEnd, Servers: serverLayout},
			DataDir:         walDir,
			PolicyEvery:     policyEvery,
			ViewCap:         w.viewCap,
			ServerCapacity:  capacity,
			Peers:           peers,
			Self:            i,
			SyncEvery:       w.syncEvery,
			CheckpointEvery: w.checkpointEvery,
			CompactAfter:    w.compactAfter,
			WALSyncEvery:    w.walSyncEvery,
			Telemetry:       tel,
		})
		if err != nil {
			closeAll(lns[i+1:])
			return r, err
		}
		r.brokers = append(r.brokers, b)
		r.brokerTel = append(r.brokerTel, tel)
		r.walDirs = append(r.walDirs, walDir)
		brokerAddrs = append(brokerAddrs, b.Addr())
	}

	var opts []dynasore.DialOption
	if w.direct {
		opts = append(opts, dynasore.WithDirectReads(0))
	}
	if w.gateway {
		// The gateway fronts one cluster client; the benchmark's clients
		// speak HTTP to it.
		cc, err := dynasore.DialCluster(ctx, brokerAddrs, opts...)
		if err != nil {
			return r, err
		}
		r.cluster = append(r.cluster, cc)
		return r, r.startGateway(cc, brokerAddrs)
	}
	for i := 0; i < clients; i++ {
		cc, err := dynasore.DialCluster(ctx, brokerAddrs, opts...)
		if err != nil {
			return r, err
		}
		r.cluster = append(r.cluster, cc)
		r.clients = append(r.clients, cc)
	}
	return r, nil
}

// startGateway serves the default middleware chain over store on a
// loopback port, with logging discarded and rate limits far above the
// offered rate (so a 429 is a real failure), and points the clients at it.
func (r *rig) startGateway(store dynasore.Store, brokers []string) error {
	cfg := gwconfig.Default()
	cfg.Listen = "127.0.0.1:0"
	cfg.Brokers = brokers
	cfg.Tokens = []string{gatewayToken}
	cfg.RateRPS = 100 * r.w.rate
	cfg.RateBurst = int(cfg.RateRPS)
	if err := cfg.Validate(); err != nil {
		return err
	}
	gw, err := gateway.New(cfg, store, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return err
	}
	r.gwLn = ln
	r.gwServer = &http.Server{Handler: gw}
	r.gwDone = make(chan struct{})
	go func() {
		defer close(r.gwDone)
		_ = r.gwServer.Serve(ln) // returns ErrServerClosed on close
	}()
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, gateway.NewClient("http://"+ln.Addr().String(), gatewayToken))
	}
	return nil
}

// gatewayURL is the gateway's base URL ("" without a gateway).
func (r *rig) gatewayURL() string {
	if r.gwLn == nil {
		return ""
	}
	return "http://" + r.gwLn.Addr().String()
}

// close stops every node, client and relay and waits for them.
func (r *rig) close() error {
	var errs []error
	for _, c := range r.clients {
		if _, ok := c.(*gateway.Client); ok {
			errs = append(errs, c.Close())
		}
	}
	if r.gwServer != nil {
		errs = append(errs, r.gwServer.Close())
		<-r.gwDone
	}
	for _, c := range r.cluster {
		errs = append(errs, c.Close())
	}
	for _, b := range r.brokers {
		errs = append(errs, b.Close())
	}
	for _, s := range r.servers {
		errs = append(errs, s.Close())
	}
	for _, rl := range r.relays {
		rl.close()
	}
	return errors.Join(errs...)
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}
