// Command dsctl is a small client for the live DynaSoRe cluster: it writes
// events, reads feeds, dumps broker statistics, and administers the
// elastic cache-server membership, speaking the cluster's multiplexed wire
// protocol via pkg/dynasore.
//
// Usage:
//
//	dsctl -broker 127.0.0.1:7000 write <user> <text...>
//	dsctl -broker 127.0.0.1:7000 read <user> [<user>...]
//	dsctl -broker 127.0.0.1:7000 stats
//	dsctl -brokers 127.0.0.1:7000,127.0.0.1:7010 top
//	dsctl -broker 127.0.0.1:7000 [-ops http://127.0.0.1:9100] trace <user>
//	dsctl -broker 127.0.0.1:7000 server list
//	dsctl -broker 127.0.0.1:7000 server add <addr> [zone:rack] [capacity]
//	dsctl -broker 127.0.0.1:7000 server drain <addr>
//	dsctl -broker 127.0.0.1:7000 server remove <addr>
//
// `top` prints a per-broker table of op counters (one row per broker of
// -brokers, falling back to -broker alone). `trace <user>` forces trace
// sampling on, reads the user's feed once, and prints the client span's
// stage breakdown; with -ops it also fetches the broker's /debug/traces
// and prints the broker-side spans of the same trace ID.
//
// Every command except top and trace also works against a dsgate HTTP
// gateway instead of a broker:
// `dsctl -gateway http://127.0.0.1:8080 -token s3cret <cmd>`.
//
// Membership commands may target any broker — followers forward mutations
// to the leader. The zero-miss decommissioning sequence is `server
// drain`, wait for `server list` to show 0 replicas on the server, then
// `server remove`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dynasore/internal/gateway"
	"dynasore/internal/telemetry"
	"dynasore/pkg/dynasore"
)

func main() {
	broker := flag.String("broker", "127.0.0.1:7000", "broker address")
	brokers := flag.String("brokers", "", "comma-separated broker addresses for top (default: -broker alone)")
	gatewayURL := flag.String("gateway", "", "dsgate HTTP gateway base URL (overrides -broker)")
	token := flag.String("token", "", "bearer token for -gateway")
	opsURL := flag.String("ops", "", "a broker's ops listener base URL; trace fetches its /debug/traces")
	timeout := flag.Duration("timeout", 10*time.Second, "per-command timeout")
	flag.Parse()
	if err := run(cliConfig{
		broker: *broker, brokers: *brokers, gatewayURL: *gatewayURL,
		token: *token, opsURL: *opsURL, timeout: *timeout,
	}, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dsctl:", err)
		os.Exit(1)
	}
}

// cliConfig carries the parsed global flags into run.
type cliConfig struct {
	broker, brokers, gatewayURL, token, opsURL string
	timeout                                    time.Duration
}

// storeAdmin is what every dsctl command needs from a backend: the feed
// API plus the elastic-membership surface. Both the wire-protocol client
// and the HTTP gateway client implement it.
type storeAdmin interface {
	dynasore.Store
	dynasore.Admin
}

func run(cfg cliConfig, args []string) (err error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: dsctl [flags] write|read|stats|top|trace|server ...")
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	switch args[0] {
	case "top":
		// top and trace speak the wire protocol's new telemetry surfaces;
		// they have no gateway equivalent.
		return runTop(ctx, cfg)
	case "trace":
		return runTrace(ctx, cfg, args[1:])
	}
	var c storeAdmin
	if cfg.gatewayURL != "" {
		c = gateway.NewClient(cfg.gatewayURL, cfg.token)
	} else {
		c, err = dynasore.Dial(ctx, cfg.broker)
		if err != nil {
			return err
		}
	}
	// A close error can be the first sign a command's final frame never
	// made it out; surface it unless a command error already won.
	defer func() {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	switch args[0] {
	case "write":
		if len(args) < 3 {
			return fmt.Errorf("usage: dsctl write <user> <text...>")
		}
		user, err := parseUser(args[1])
		if err != nil {
			return err
		}
		seq, err := c.Write(ctx, user, []byte(strings.Join(args[2:], " ")))
		if err != nil {
			return err
		}
		fmt.Printf("written seq=%d\n", seq)
		return nil
	case "read":
		if len(args) < 2 {
			return fmt.Errorf("usage: dsctl read <user> [<user>...]")
		}
		var targets []uint32
		for _, a := range args[1:] {
			user, err := parseUser(a)
			if err != nil {
				return err
			}
			targets = append(targets, user)
		}
		views, err := c.Read(ctx, targets)
		if err != nil {
			return err
		}
		for i, v := range views {
			fmt.Printf("user %d (version %d, %d events):\n", targets[i], v.Version, len(v.Events))
			for _, e := range v.Events {
				fmt.Printf("  %s\n", e)
			}
		}
		return nil
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("epoch=%d reads=%d writes=%d replicated=%d evicted=%d migrated=%d misses=%d checkpoints=%d compacted=%d catchup=%d leases=%d direct=%d directstale=%d\n",
			st.Epoch, st.Reads, st.Writes, st.Replicated, st.Evicted, st.Migrated, st.Misses,
			st.Checkpoints, st.CompactedSegments, st.CatchupRecords,
			st.LeaseGrants, st.DirectReads, st.DirectStale)
		return nil
	case "server":
		if len(args) < 2 {
			return fmt.Errorf("usage: dsctl server list|add|drain|remove ...")
		}
		return runServer(ctx, c, args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// runTop prints one row of op counters per broker — the per-broker
// attribution StatsPerBroker exists for, rather than the cluster sum.
func runTop(ctx context.Context, cfg cliConfig) error {
	if cfg.gatewayURL != "" {
		return fmt.Errorf("top needs broker addresses (-broker/-brokers), not a gateway")
	}
	addrs := []string{cfg.broker}
	if cfg.brokers != "" {
		addrs = strings.Split(cfg.brokers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
	}
	cc, err := dynasore.DialCluster(ctx, addrs)
	if err != nil {
		return err
	}
	defer cc.Close()
	_, per, err := cc.StatsPerBroker(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%-21s %8s %8s %8s %8s %8s %8s %6s\n",
		"BROKER", "READS", "WRITES", "REPL", "MIGR", "MISSES", "LEASES", "EPOCH")
	for _, p := range per {
		st := p.Stats
		fmt.Printf("%-21s %8d %8d %8d %8d %8d %8d %6d\n",
			p.Addr, st.Reads, st.Writes, st.Replicated, st.Migrated, st.Misses, st.LeaseGrants, st.Epoch)
	}
	if len(per) < len(addrs) {
		fmt.Printf("(%d of %d brokers unreachable)\n", len(addrs)-len(per), len(addrs))
	}
	return nil
}

// runTrace forces trace sampling on, reads the user's feed once, and
// prints the client span's stage breakdown; with -ops it also fetches
// the broker's /debug/traces and prints that node's spans of the same
// trace.
func runTrace(ctx context.Context, cfg cliConfig, args []string) error {
	if cfg.gatewayURL != "" {
		return fmt.Errorf("trace needs a broker address (-broker), not a gateway")
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: dsctl trace <user>")
	}
	user, err := parseUser(args[0])
	if err != nil {
		return err
	}
	telemetry.Default().SetSampleEvery(1)
	c, err := dynasore.Dial(ctx, cfg.broker)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Read(ctx, []uint32{user}); err != nil {
		return err
	}
	recs := telemetry.Default().Traces(4)
	if len(recs) == 0 {
		return fmt.Errorf("no client span recorded")
	}
	traceID := recs[0].TraceID
	for _, r := range recs {
		if r.TraceID == traceID {
			printTrace("client", r)
		}
	}
	if cfg.opsURL == "" {
		fmt.Printf("(pass -ops http://<broker-ops-addr> to fetch the broker-side spans of trace %s)\n", traceID)
		return nil
	}
	brokerRecs, err := fetchTraces(ctx, cfg.opsURL)
	if err != nil {
		return fmt.Errorf("fetch broker traces: %w", err)
	}
	matched := 0
	for _, r := range brokerRecs {
		if r.TraceID == traceID {
			printTrace("broker", r)
			matched++
		}
	}
	if matched == 0 {
		fmt.Printf("trace %s not in the broker's ring yet (it keeps the last 256 sampled spans)\n", traceID)
	}
	return nil
}

// printTrace renders one completed span with its stage breakdown.
func printTrace(node string, r telemetry.TraceRecord) {
	var stages strings.Builder
	for i, st := range r.Stages {
		if i > 0 {
			stages.WriteByte(' ')
		}
		fmt.Fprintf(&stages, "%s=%.2fms", st.Name, st.Ms)
	}
	fmt.Printf("%-6s trace=%s %-13s %8.2fms  %s\n", node, r.TraceID, r.Op, r.TotalMs, stages.String())
}

// fetchTraces pulls a node's recent sampled spans from its ops listener.
func fetchTraces(ctx context.Context, opsURL string) ([]telemetry.TraceRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(opsURL, "/")+"/debug/traces", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %s", req.URL, resp.Status)
	}
	var recs []telemetry.TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// runServer executes the elastic-membership subcommands.
func runServer(ctx context.Context, c storeAdmin, args []string) error {
	switch args[0] {
	case "list":
		m, err := c.Membership(ctx)
		if err != nil {
			return err
		}
		printMembership(m)
		return nil
	case "add":
		if len(args) < 2 {
			return fmt.Errorf("usage: dsctl server add <addr> [zone:rack] [capacity]")
		}
		var pos dynasore.Position
		capacity := 0
		if len(args) >= 3 {
			if _, err := fmt.Sscanf(args[2], "%d:%d", &pos.Zone, &pos.Rack); err != nil {
				return fmt.Errorf("bad position %q (want zone:rack): %w", args[2], err)
			}
		}
		if len(args) >= 4 {
			n, err := strconv.Atoi(args[3])
			if err != nil || n < 0 {
				return fmt.Errorf("bad capacity %q", args[3])
			}
			capacity = n
		}
		m, err := c.AddServer(ctx, args[1], pos, capacity)
		if err != nil {
			return err
		}
		fmt.Printf("added %s at epoch %d\n", args[1], m.Epoch)
		printMembership(m)
		return nil
	case "drain":
		if len(args) != 2 {
			return fmt.Errorf("usage: dsctl server drain <addr>")
		}
		m, err := c.DrainServer(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("draining %s at epoch %d (remove it once `server list` shows 0 replicas)\n", args[1], m.Epoch)
		printMembership(m)
		return nil
	case "remove":
		if len(args) != 2 {
			return fmt.Errorf("usage: dsctl server remove <addr>")
		}
		m, err := c.RemoveServer(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("removed %s at epoch %d\n", args[1], m.Epoch)
		printMembership(m)
		return nil
	default:
		return fmt.Errorf("unknown server command %q", args[0])
	}
}

func printMembership(m dynasore.Membership) {
	fmt.Printf("epoch %d, %d slots (%d active)\n", m.Epoch, len(m.Servers), m.NumActive())
	for i, s := range m.Servers {
		// 0 means the broker's default capacity, which may itself be a
		// bound — only the broker knows, so don't claim "unbounded".
		capacity := "default"
		if s.Capacity > 0 {
			capacity = strconv.Itoa(s.Capacity)
		}
		fmt.Printf("  [%d] %-21s %-8s zone %d rack %d  capacity %-9s replicas %d\n",
			i, s.Addr, s.State, s.Pos.Zone, s.Pos.Rack, capacity, s.Replicas)
	}
}

func parseUser(s string) (uint32, error) {
	u, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad user id %q: %w", s, err)
	}
	return uint32(u), nil
}
