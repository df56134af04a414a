// Command perfbench is the repository's benchmark. For one workload it boots
// an in-process DynaSoRe cluster on a fixed rack/zone layout, drives it from
// a schedule generated from --seed, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it through run.sh, which builds it from the enclosing checkout. See
// README.md for the workloads, the metrics and the layout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dynasore/internal/socialgraph"
)

// Run shape: the measured phase takes --seconds and is cut into rounds.
// Each round is one open-loop block, openBlock of the workload's schedule
// at its fixed rate, then one closed-loop slice of a fixed op count; the
// blocks together take openShare of --seconds, and the slices hold what
// the workload's reference capacity completes in the rest. Every op count
// is fixed, so throughput cannot move the heap measured after the phase.
//
// The gated latencies and capacity are medians over the rounds: a stall of
// the shared host that covers a few rounds moves them little, where it
// would shift a percentile or a rate taken over the whole phase.
//
// Set-up runs setupRuns times; setup_s is their median and the last one is
// measured.
const (
	openShare = 0.8
	openBlock = 3 * time.Second
	setupRuns = 3
)

// graphSeed fixes each workload's social graph: the population and who
// follows whom are part of the workload, and --seed draws the op schedules
// over it. Varying the graph too would add its own spread to every metric.
const graphSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: post-storm or edge-mix")
		seed    = flag.Int64("seed", 1, "seed of every op schedule (each workload's social graph is fixed)")
		seconds = flag.Int("seconds", 10, "measured seconds (open-loop and closed-loop phases together)")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics instead")
		workDir = flag.String("dir", ".bench_build", "directory for WALs and span files")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// The open-loop sender sleeps in nanosleep between ops, and a goroutine
	// in a syscall keeps its P until the runtime notices. One P beyond the
	// CPU count keeps the cluster's share of Ps at one per CPU meanwhile.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	// The gateway client uses the default transport; keep enough idle
	// connections for every in-flight op, or each request past the second
	// would open (and leave in TIME_WAIT) a fresh connection.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = inflight

	dir := filepath.Join(*workDir, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	rep, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is what one run prints: human-readable lines, then the JSON
// result.
type report struct {
	lines     []string
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tally folds one checked phase, and the lost writes its final sweep
// found, into the report.
func (r *report) tally(t tally, lost int, c *checker) {
	r.attempted += t.attempted
	r.failed += t.failed + t.wrong
	if (t.wrong > 0 || lost > 0) && r.correct {
		r.correct = false
		r.linef("first violation: %s", c.firstViolation())
	}
}

func (r *report) print(f *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(f, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// inputs are a run's generated inputs, built before any timing.
type inputs struct {
	warm, open, load []op
}

func makeInputs(w *workload, seed int64, seconds time.Duration) (*inputs, error) {
	st, err := socialgraph.NewStream(w.graph, w.users, graphSeed)
	if err != nil {
		return nil, err
	}
	openSecs := openShare * seconds.Seconds()
	closedSecs := seconds.Seconds() - openSecs
	return &inputs{
		warm: buildSchedule(w, st, seed*4+1, w.warmOps, 0),
		open: buildSchedule(w, st, seed*4+2, int(w.rate*openSecs), w.rate),
		load: buildSchedule(w, st, seed*4+3, int(w.capacity*closedSecs)+1, 0),
	}, nil
}

// splitBlocks cuts an open-loop schedule by due time into blocks of
// openBlock, each block's due times counted from its own start.
func splitBlocks(ops []op) [][]op {
	var out [][]op
	for _, o := range ops {
		k := int(o.due / openBlock)
		for len(out) <= k {
			out = append(out, nil)
		}
		o.due -= time.Duration(k) * openBlock
		out[k] = append(out[k], o)
	}
	return out
}

// setupResult splits one set-up into its stages and keeps the warm-up's
// tally: a wrong answer during warm-up is as wrong as one measured later.
type setupResult struct {
	boot, seed, warm time.Duration
	warmOps          tally
}

func (s setupResult) total() time.Duration { return s.boot + s.seed + s.warm }

// setup boots a cluster, seeds one post per user and warms it with the
// warm-up schedule in closed loop, so leases, caches and placement have
// seen several policy passes of traffic before the measured phases.
func setup(ctx context.Context, w *workload, in *inputs, dir string, relays bool, tr *tracer) (*rig, *driver, setupResult, error) {
	var s setupResult
	start := time.Now()
	r, err := boot(ctx, w, dir, relays)
	if err != nil {
		return nil, nil, s, fmt.Errorf("boot: %w", err)
	}
	s.boot = time.Since(start)
	tr.record("setup.boot", start, start.Add(s.boot))
	d := &driver{w: w, clients: r.clients, check: newChecker(w.users)}

	start = time.Now()
	if err := d.seed(ctx, w.users); err != nil {
		return nil, nil, s, errors.Join(fmt.Errorf("seed: %w", err), r.close())
	}
	s.seed = time.Since(start)
	tr.record("setup.seed", start, start.Add(s.seed))

	start = time.Now()
	s.warmOps, _ = d.closedLoop(ctx, in.warm)
	s.warm = time.Since(start)
	tr.record("setup.warm", start, start.Add(s.warm))
	return r, d, s, nil
}

func run(ctx context.Context, w *workload, seed int64, seconds time.Duration, traced bool, dir string) (*report, error) {
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(ctx, w, in, seed, dir)
	}
	return runMeasured(ctx, w, in, dir)
}

// runMeasured produces the end-to-end metrics: set-up (repeated, median),
// the measured rounds of open-loop block and closed-loop slice, and the
// final lost-write sweep.
func runMeasured(ctx context.Context, w *workload, in *inputs, dir string) (*report, error) {
	rep := &report{}
	var setups []float64
	var r *rig
	var d *driver
	rep.correct = true
	for k := 0; k < setupRuns; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		var s setupResult
		var err error
		r, d, s, err = setup(ctx, w, in, sub, false, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.total().Seconds())
		rep.tally(s.warmOps, 0, d.check)
		if k == setupRuns-1 {
			break
		}
		if err := errors.Join(r.close(), os.RemoveAll(sub)); err != nil {
			return nil, err
		}
	}
	defer r.close()

	var opens []openResult
	var load tally
	var topViews float64
	blocks := splitBlocks(in.open)
	rates := make([]float64, len(blocks))
	for k, block := range blocks {
		before := r.serverStats()
		opens = append(opens, d.openLoop(ctx, block, nil))
		topViews += topSwitchViews(before, r.serverStats())
		// Each slice takes its own share of the closed-loop schedule.
		n := len(in.load)
		slice := in.load[k*n/len(blocks) : (k+1)*n/len(blocks)]
		t, elapsed := d.closedLoop(ctx, slice)
		rates[k] = ratio(float64(t.attempted-t.failed), elapsed.Seconds())
		load.merge(t)
	}
	heap := liveHeap()
	lost := d.check.sweep(ctx, d.clients[0], 256)

	rep.metrics = endToEnd(median(setups), opens, median(rates), topViews, heap)
	var reads, writes, lag []time.Duration
	for _, o := range opens {
		rep.tally(o.tally, 0, d.check)
		rd, wr := latencies(o)
		reads, writes, lag = append(reads, rd...), append(writes, wr...), append(lag, o.lag...)
	}
	rep.tally(load, lost, d.check)
	rep.lines = append(rep.lines, tailLine("read_p99_ms", reads), tailLine("write_p99_ms", writes))
	rep.linef("samples: %d reads, %d writes in %d open-loop blocks; %d closed-loop ops", len(reads), len(writes), len(opens), load.attempted)
	rep.linef("failed_frac %.6f ratio (%d failed or wrong of %d attempted)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	rep.linef("loadgen.lag_p99_ms %.4f ms", ms(percentile(lag, 0.99)))
	rep.linef("lost acknowledged writes: %d", lost)
	return rep, nil
}

// endToEnd computes the gated end-to-end metrics from a measured run: the
// median set-up time, the open-loop blocks' raw records, the median
// closed-loop slice rate, the top-switch views counted over the open-loop
// blocks, and the live heap after the phase.
func endToEnd(setup float64, opens []openResult, capacity, topViews float64, heap uint64) []metric {
	var ops int
	for _, o := range opens {
		ops += len(o.ops)
	}
	return []metric{
		{"setup_s", "s", setup},
		{"read_p50_ms", "ms", blockPercentile(opens, false, 0.50)},
		{"write_p50_ms", "ms", blockPercentile(opens, true, 0.50)},
		{"capacity_ops_s", "ops/s", capacity},
		{"top_switch_views_per_op", "views/op", ratio(topViews, float64(ops))},
		{"heap_mb", "MiB", float64(heap) / (1 << 20)},
	}
}

// blockPercentile takes the exact q-quantile of one op kind's raw latency
// samples in every open-loop block and returns the median of those, in ms.
// Blocks without ops of that kind are skipped.
func blockPercentile(opens []openResult, write bool, q float64) float64 {
	var ps []float64
	for _, o := range opens {
		reads, writes := latencies(o)
		samples := reads
		if write {
			samples = writes
		}
		if len(samples) > 0 {
			ps = append(ps, ms(percentile(samples, q)))
		}
	}
	return median(ps)
}

// tailLine prints the exact p99 of a whole phase's samples with the
// samples it rests on. It is printed on every run but not gated: a few
// stalls of tens of ms decide the p99 of a phase this short, so it spreads
// far more than any bound (README.md).
func tailLine(name string, samples []time.Duration) string {
	n := len(samples)
	beyond := n - int(math.Ceil(0.99*float64(n)))
	return fmt.Sprintf("%-36s %14.6f ms (%d samples, %d beyond; not gated)", name, ms(percentile(samples, 0.99)), n, beyond)
}

// liveHeap returns the smallest heap left after a forced collection, over a
// few collections 50 ms apart: a checkpoint in flight holds a copy of the
// whole store for a moment, and one sample taken then would read double.
func liveHeap() uint64 {
	var least uint64
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		if i == 0 || mem.HeapAlloc < least {
			least = mem.HeapAlloc
		}
	}
	return least
}

// latencies splits an open-loop phase's per-op latencies by kind.
func latencies(res openResult) (reads, writes []time.Duration) {
	for i, o := range res.ops {
		if o.write {
			writes = append(writes, res.latency[i])
		} else {
			reads = append(reads, res.latency[i])
		}
	}
	return reads, writes
}
