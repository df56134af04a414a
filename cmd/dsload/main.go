// Command dsload is a live load generator for a running DynaSoRe cluster:
// it synthesizes a social graph (internal/socialgraph), drives a
// read-heavy feed workload against the broker tier — Read(u, L) over each
// user's followees, interleaved with Write(u) posts — and reports
// end-to-end throughput and latency as Go-benchmark lines on stdout, so
// `cmd/benchjson` can turn a run into a machine-readable artifact (CI
// archives one as BENCH_PR5.json).
//
// Usage:
//
//	dsload -brokers 127.0.0.1:7000,127.0.0.1:7001 -users 2000 -duration 10s
//	dsload -selfhost -duration 2s     # in-process cluster; the CI smoke mode
//	dsload -selfhost -direct -duration 2s   # direct-read fast path: lease
//	                                  # views and read cache servers directly,
//	                                  # reporting the direct-hit ratio
//	dsload -scenario rolling-upgrade  # scripted acceptance scenario with
//	                                  # fault injection and invariant checks
//	dsload -scenario list             # list the built-in scenarios
//	dsload -gateway http://127.0.0.1:8080 -token s3cret -duration 5s
//	                                  # drive a dsgate HTTP edge instead of
//	                                  # the broker wire protocol; reports
//	                                  # BenchmarkGatewayRead/Write lines
//	dsload -brokers ... -trace-sample 64   # mint a wire-propagated trace
//	                                  # context on one op in 64; sampled
//	                                  # spans land in each broker's
//	                                  # /debug/traces ring
//
// Besides throughput lines, the open-loop mode reports client-observed
// tail latency per op kind as BenchmarkDSLoadFeedRead/p50 (p95, p99,
// p999) sub-lines, in the same parseable shape.
//
// The -selfhost mode starts an in-process cluster (pkg/dynasore Engine)
// and drives it over the real network client, so one command exercises
// the full write-ahead-log / cache / placement stack with zero setup.
//
// The -scenario mode hands control to internal/scenario: it boots its own
// multi-broker rig, replays the named fault-injection timeline (flash
// crowd, diurnal shift, rolling upgrade, broker crash), checks the
// continuous invariants — no lost acknowledged writes, no wrong-version
// reads, monotone epochs — and prints per-scenario benchmark lines on
// stdout in the same format as the open-loop mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/gateway"
	"dynasore/internal/scenario"
	"dynasore/internal/socialgraph"
	"dynasore/internal/telemetry"
	"dynasore/pkg/dynasore"
)

// options is every dsload flag, gathered so validation and dispatch are
// testable without a process boundary.
type options struct {
	brokers   string
	selfhost  bool
	scenario  string
	gateway   string
	token     string
	users     int
	graph     string
	seed      int64
	duration  time.Duration
	workers   int
	writeFrac float64
	readCap   int
	opsScale  float64
	direct    bool
	// traceSample, when positive, sets the client-side trace sampling
	// rate: one op in traceSample mints a wire-propagated trace context.
	// 1 traces every op — the setting `dsctl trace` uses.
	traceSample int
	// usersSet records whether -users was given explicitly: a scenario
	// carries its own designed population, which an untouched default
	// must not override.
	usersSet bool
}

func main() {
	var o options
	flag.StringVar(&o.brokers, "brokers", "", "comma-separated broker addresses of the cluster under load")
	flag.BoolVar(&o.selfhost, "selfhost", false, "start an in-process cluster and load it (no -brokers needed)")
	flag.StringVar(&o.scenario, "scenario", "", "run a named acceptance scenario on its own rig ('list' prints the names)")
	flag.StringVar(&o.gateway, "gateway", "", "drive a dsgate HTTP gateway at this base URL instead of brokers")
	flag.StringVar(&o.token, "token", "", "bearer token for -gateway (the gateway's auth middleware)")
	flag.IntVar(&o.users, "users", 1000, "social graph size")
	flag.StringVar(&o.graph, "graph", "twitter", "graph shape: twitter, facebook, or livejournal")
	flag.Int64Var(&o.seed, "seed", 42, "graph and workload RNG seed")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "how long to apply load")
	flag.IntVar(&o.workers, "workers", 8, "concurrent workload goroutines")
	flag.Float64Var(&o.writeFrac, "write-frac", 0.2, "fraction of operations that are writes")
	flag.IntVar(&o.readCap, "read-cap", 32, "max followees fetched per feed read")
	flag.Float64Var(&o.opsScale, "ops-scale", 1, "scale factor for a scenario's scripted op counts")
	flag.BoolVar(&o.direct, "direct", false, "enable the direct-read fast path (lease views, read cache servers without the broker)")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "trace one op in N across the cluster (1 = every op; 0 keeps the 1/1024 default)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "users" {
			o.usersSet = true
		}
	})
	if err := dispatch(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsload:", err)
		os.Exit(1)
	}
}

// dispatch validates the flag set and routes to the scenario or open-loop
// mode. It is the whole of main minus flag declarations and the exit
// code, so tests can drive every path.
func dispatch(o options, stdout, stderr io.Writer) error {
	if err := validate(o); err != nil {
		return err
	}
	if o.scenario == "list" {
		for _, name := range scenario.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if o.traceSample > 0 {
		telemetry.Default().SetSampleEvery(o.traceSample)
	}
	if o.scenario != "" {
		return runScenario(o, stdout, stderr)
	}
	return run(o, stdout, stderr)
}

// validate rejects flag combinations before any cluster is started.
func validate(o options) error {
	if o.users <= 0 {
		return fmt.Errorf("-users must be positive, got %d", o.users)
	}
	if o.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	}
	if o.writeFrac < 0 || o.writeFrac > 1 {
		return fmt.Errorf("-write-frac must be in [0,1], got %g", o.writeFrac)
	}
	if o.opsScale <= 0 {
		return fmt.Errorf("-ops-scale must be positive, got %g", o.opsScale)
	}
	if o.traceSample < 0 {
		return fmt.Errorf("-trace-sample must be non-negative, got %d", o.traceSample)
	}
	if o.scenario != "" {
		if o.brokers != "" || o.selfhost || o.gateway != "" {
			return fmt.Errorf("-scenario boots its own rig; drop -brokers/-selfhost/-gateway")
		}
		if o.scenario == "list" {
			return nil
		}
		if _, ok := scenario.Lookup(o.scenario); !ok {
			return scenario.ErrUnknown(o.scenario)
		}
		return nil
	}
	if o.gateway != "" {
		if o.brokers != "" || o.selfhost {
			return fmt.Errorf("-gateway drives the HTTP edge; drop -brokers/-selfhost")
		}
		if o.direct {
			return fmt.Errorf("-direct is a cluster-client option; the gateway decides its own read path")
		}
		return nil
	}
	if o.brokers == "" && !o.selfhost {
		return fmt.Errorf("need -brokers, -selfhost, -gateway, or -scenario")
	}
	return nil
}

// runScenario executes one acceptance timeline: benchmark lines on
// stdout (the artifact), narration and the outcome summary on stderr.
func runScenario(o options, stdout, stderr io.Writer) error {
	sc, ok := scenario.Lookup(o.scenario)
	if !ok {
		return scenario.ErrUnknown(o.scenario)
	}
	users := 0 // 0 = the scenario's own designed population
	if o.usersSet {
		users = o.users
	}
	res, err := scenario.Execute(sc, scenario.Options{
		Users:    users,
		Seed:     o.seed,
		Workers:  o.workers,
		OpsScale: o.opsScale,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("scenario %s: %w", o.scenario, err)
	}
	if verr := res.Err(); verr != nil {
		return fmt.Errorf("scenario %s: %w", o.scenario, verr)
	}
	for _, line := range res.BenchLines() {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stderr, "dsload: scenario %s passed: %d reads (%d views), %d writes, %d failed reads, epoch %d\n",
		res.Scenario, res.Reads, res.ViewsRead, res.Writes, res.FailedReads, res.FinalEpoch)
	if res.DirectReads > 0 || res.DirectStale > 0 {
		fmt.Fprintf(stderr, "dsload: direct hits=%d fenced/fallback=%d\n", res.DirectReads, res.DirectStale)
	}
	return nil
}

func run(o options, stdout, stderr io.Writer) error {
	var (
		brokers   = o.brokers
		selfhost  = o.selfhost
		users     = o.users
		graphName = o.graph
		seed      = o.seed
		duration  = o.duration
		workers   = o.workers
		writeFrac = o.writeFrac
		readCap   = o.readCap
		direct    = o.direct
	)
	ctx := context.Background()
	var opts []dynasore.DialOption
	if direct {
		opts = append(opts, dynasore.WithDirectReads(0))
	}
	var addrs []string
	var store dynasore.Store
	switch {
	case o.gateway != "":
		c := gateway.NewClient(o.gateway, o.token)
		defer func() { _ = c.Close() }()
		store = c
	case selfhost:
		e, err := dynasore.Open(dynasore.EngineConfig{CacheServers: 3})
		if err != nil {
			return err
		}
		defer e.Close()
		// Load the engine over the real network client, so the measured
		// path includes framing, multiplexing, and the broker's serve
		// loop — not just in-process calls.
		addrs = []string{e.Addr()}
	case brokers != "":
		addrs = strings.Split(brokers, ",")
	default:
		return fmt.Errorf("need -brokers or -selfhost")
	}
	if len(addrs) > 0 {
		c, err := dynasore.DialCluster(ctx, addrs, opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		store = c
	}

	var g *socialgraph.Graph
	var err error
	switch graphName {
	case "twitter":
		g, err = socialgraph.Twitter(users, seed)
	case "facebook":
		g, err = socialgraph.Facebook(users, seed)
	case "livejournal":
		g, err = socialgraph.LiveJournal(users, seed)
	default:
		err = fmt.Errorf("unknown graph %q", graphName)
	}
	if err != nil {
		return err
	}

	// Seed one post per user so the first feed reads hit real views.
	payload := []byte("dsload: lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod tempor incididunt ut labore et dolore magna aliqua")
	for u := 0; u < g.NumUsers(); u++ {
		if _, err := store.Write(ctx, uint32(u), payload); err != nil {
			return fmt.Errorf("seed write for user %d: %w", u, err)
		}
	}

	// Per-op latency distributions live in a private telemetry node (the
	// workload's view of the cluster, kept out of any co-resident ops
	// surface) so the tail percentiles come from the same fixed-bucket
	// histograms the brokers export — client-observed p99 lines up with
	// server-side dynasore_broker_op_seconds by construction.
	loadTel := telemetry.New()
	readHist := loadTel.Histogram("dsload_op_seconds", "Client-observed op latency.", "op", "read")
	writeHist := loadTel.Histogram("dsload_op_seconds", "Client-observed op latency.", "op", "write")
	var (
		readOps, readNs   atomic.Int64
		writeOps, writeNs atomic.Int64
		viewsRead         atomic.Int64
		firstErr          atomic.Pointer[error]
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(deadline) {
				u := uint32(rng.Intn(g.NumUsers()))
				if rng.Float64() < writeFrac {
					start := time.Now()
					_, err := store.Write(ctx, u, payload)
					if err != nil {
						e := fmt.Errorf("write user %d: %w", u, err)
						firstErr.CompareAndSwap(nil, &e)
						return
					}
					el := time.Since(start)
					writeHist.Observe(el)
					writeNs.Add(int64(el))
					writeOps.Add(1)
					continue
				}
				targets := feedTargets(g, u, readCap)
				start := time.Now()
				views, err := store.Read(ctx, targets)
				if err != nil {
					e := fmt.Errorf("read feed of user %d: %w", u, err)
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				el := time.Since(start)
				readHist.Observe(el)
				readNs.Add(int64(el))
				readOps.Add(1)
				viewsRead.Add(int64(len(views)))
			}
		}(w)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}

	// Benchmark lines on stdout — exactly the shape cmd/benchjson parses.
	// Gateway runs report under their own names: HTTP-edge latency is a
	// different quantity than broker-wire latency and must not share a
	// series with it.
	readName, writeName := "BenchmarkDSLoadFeedRead", "BenchmarkDSLoadWrite"
	if o.gateway != "" {
		readName, writeName = "BenchmarkGatewayRead", "BenchmarkGatewayWrite"
	}
	if n := readOps.Load(); n > 0 {
		fmt.Fprintln(stdout, benchLine(readName, n, readNs.Load()))
		printQuantiles(stdout, readName, n, readHist)
	}
	if n := writeOps.Load(); n > 0 {
		fmt.Fprintln(stdout, benchLine(writeName, n, writeNs.Load()))
		printQuantiles(stdout, writeName, n, writeHist)
	}
	// The human summary goes to stderr so it never pollutes the artifact.
	st, err := store.Stats(ctx)
	if err != nil {
		return err
	}
	total := readOps.Load() + writeOps.Load()
	fmt.Fprintf(stderr, "dsload: graph=%s users=%d workers=%d duration=%s\n",
		g.Name(), g.NumUsers(), workers, duration)
	fmt.Fprintf(stderr, "dsload: %d ops (%.0f/s): %d feed reads (%d views), %d writes\n",
		total, float64(total)/duration.Seconds(), readOps.Load(), viewsRead.Load(), writeOps.Load())
	fmt.Fprintf(stderr, "dsload: cluster epoch=%d replicated=%d migrated=%d evicted=%d misses=%d\n",
		st.Epoch, st.Replicated, st.Migrated, st.Evicted, st.Misses)
	if direct {
		// Hit ratio over views read: every view either came straight off a
		// cache server or fell back to the broker path.
		ratio := 0.0
		if v := viewsRead.Load(); v > 0 {
			ratio = 100 * float64(st.DirectReads) / float64(v)
		}
		fmt.Fprintf(stderr, "dsload: direct hits=%d (%.1f%% of views) fenced/fallback=%d leases=%d\n",
			st.DirectReads, ratio, st.DirectStale, st.LeaseGrants)
	}
	return nil
}

// feedTargets builds the Read(u, L) target list for one feed fetch: the
// user's followees (capped at maxTargets), or the user's own view for the
// graph's isolated vertices.
func feedTargets(g *socialgraph.Graph, u uint32, maxTargets int) []uint32 {
	following := g.Following(socialgraph.UserID(u))
	if len(following) == 0 {
		return []uint32{u}
	}
	if maxTargets > 0 && len(following) > maxTargets {
		following = following[:maxTargets]
	}
	targets := make([]uint32, len(following))
	for i, f := range following {
		targets[i] = uint32(f)
	}
	return targets
}

// benchLine formats one Go-benchmark result line: name, iteration count,
// and nanoseconds per operation.
func benchLine(name string, ops, totalNs int64) string {
	return fmt.Sprintf("%s \t%8d\t%12.1f ns/op", name, ops, float64(totalNs)/float64(ops))
}

// printQuantiles emits one Go-benchmark sub-line per tail percentile of an
// op kind (p50/p95/p99/p999), read off the run's latency histogram. The
// values are bucket upper bounds, so a reported p99 is conservative — the
// true quantile is at or below it.
func printQuantiles(w io.Writer, name string, ops int64, h *telemetry.Histogram) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		ns := h.Quantile(q.q) * 1e9
		fmt.Fprintf(w, "%s/%s \t%8d\t%12.1f ns/op\n", name, q.suffix, ops, ns)
	}
}
