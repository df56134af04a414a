package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/socialgraph"
	"dynasore/pkg/dynasore"
)

// Options tunes one scenario execution without changing its timeline.
type Options struct {
	// Users overrides the scenario's default population when positive.
	Users int
	// Seed makes the workload deterministic; the default is 1.
	Seed int64
	// Workers is the load concurrency per phase (default 4).
	Workers int
	// OpsScale multiplies every phase's op budget (default 1.0) — CI smoke
	// runs scale down, soak runs scale up, timelines stay identical.
	OpsScale float64
	// Logf, when set, receives progress lines (dsload points it at stderr).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Users < 0 {
		o.Users = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.OpsScale <= 0 {
		o.OpsScale = 1.0
	}
	return o
}

// Result is one scenario execution's metrics and verdict. BenchLines
// renders the throughput numbers in Go-benchmark format so `dsload
// -scenario` output feeds the same benchjson artifact as every other
// benchmark.
type Result struct {
	// Scenario and Users echo what ran.
	Scenario string
	Users    int
	// Reads/Writes count completed client calls; ReadNs/WriteNs their
	// summed latency. A "read" is one feed poll (possibly many targets).
	Reads, Writes   int64
	ReadNs, WriteNs int64
	ViewsRead       int64
	FailedReads     int64
	FailedWrites    int64
	// DirectReads/DirectStale are the client's direct-read fast-path
	// counters (zero for broker-path scenarios).
	DirectReads, DirectStale int64
	// FinalEpoch is the membership epoch the cluster converged on.
	FinalEpoch uint64
	// Violations lists every invariant violation; empty means the run is
	// safe. Err folds them, plus scenario-specific failures, into one error.
	Violations []string
}

// BenchLines renders the run as Go-benchmark lines (name, iterations,
// ns/op) for the benchjson pipeline.
func (r Result) BenchLines() []string {
	camel := camelName(r.Scenario)
	var out []string
	if r.Reads > 0 {
		out = append(out, fmt.Sprintf("BenchmarkScenario%sFeedRead \t%8d\t%12.1f ns/op",
			camel, r.Reads, float64(r.ReadNs)/float64(r.Reads)))
	}
	if r.Writes > 0 {
		out = append(out, fmt.Sprintf("BenchmarkScenario%sWrite \t%8d\t%12.1f ns/op",
			camel, r.Writes, float64(r.WriteNs)/float64(r.Writes)))
	}
	return out
}

// camelName turns a kebab-case scenario name into a benchmark-safe
// CamelCase fragment ("flash-crowd" -> "FlashCrowd").
func camelName(name string) string {
	out := make([]byte, 0, len(name))
	up := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '-' || c == '_' {
			up = true
			continue
		}
		if up && c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up = false
		out = append(out, c)
	}
	return string(out)
}

// Run is one live scenario execution: the cluster rig, the streamed
// workload, the production cluster client, and the invariant monitor. Step
// functions receive it and drive the timeline.
type Run struct {
	// Scenario is the timeline being executed.
	Scenario Scenario
	// Rig is the in-process cluster under test.
	Rig *Rig
	// Stream emits the Zipf-weighted workload.
	Stream *socialgraph.Stream
	// Check monitors the safety invariants.
	Check *Checker

	opts   Options
	client *dynasore.ClusterClient
	// brokerOnly is a second cluster client without direct reads, for
	// Mix.BrokerPath phases of direct scenarios (nil when the scenario
	// isn't direct — client already is the broker path then).
	brokerOnly *dynasore.ClusterClient
	perB       map[int]*dynasore.ClusterClient
	phase      int
	writeNs    atomic.Int64
	readNs     atomic.Int64
	reads      atomic.Int64
	writes     atomic.Int64
	views      atomic.Int64
	failedR    atomic.Int64
	failedW    atomic.Int64
}

// Mix shapes one load phase: how many feed polls, who polls, and through
// which broker the traffic enters.
type Mix struct {
	// Ops is the feed-poll budget of the phase (scaled by Options.OpsScale).
	Ops int
	// WriteFrac is the probability a poll is followed by the reader posting
	// to its own view.
	WriteFrac float64
	// Hot, when non-negative, is a user whose view HotFrac of the polls
	// read directly — the flash-crowd knob.
	Hot int64
	// HotFrac is the fraction of polls aimed at Hot.
	HotFrac float64
	// Via routes the phase's traffic: zero uses the failover cluster
	// client over all brokers (the default); ViaBroker(i) pins it to
	// broker i's endpoint only — the diurnal "which zone is awake" knob.
	Via int
	// BrokerPath forces the phase through the broker tier even when the
	// scenario's cluster client has direct reads enabled. Direct reads are
	// invisible to the placement policy (the broker never sees them), so
	// phases that must generate replication signal set this.
	BrokerPath bool
	// FanoutCap bounds targets per poll (default 16).
	FanoutCap int
}

// ViaBroker encodes broker index i for Mix.Via (the zero Via value means
// "the failover cluster client").
func ViaBroker(i int) int { return i + 1 }

// ScaledOps reports the phase's op budget after Options.OpsScale.
func (r *Run) ScaledOps(ops int) int {
	n := int(float64(ops) * r.opts.OpsScale)
	if n < 1 {
		n = 1
	}
	return n
}

// Logf forwards to Options.Logf when set.
func (r *Run) Logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// store returns the Store a phase's traffic goes through.
func (r *Run) store(mix Mix) (dynasore.Store, error) {
	if mix.Via <= 0 {
		if mix.BrokerPath && r.brokerOnly != nil {
			return r.brokerOnly, nil
		}
		return r.client, nil
	}
	via := mix.Via - 1
	if c, ok := r.perB[via]; ok {
		return c, nil
	}
	c, err := dynasore.Dial(context.Background(), r.Rig.BrokerAddrs()[via])
	if err != nil {
		return nil, err
	}
	r.perB[via] = c
	return c, nil
}

// Load runs one synchronous load phase over Options.Workers workers and
// folds its metrics into the result. Every acknowledged write and completed
// read is reported to the invariant checker. Mix.Ops must be positive —
// an unbounded phase would never return.
func (r *Run) Load(mix Mix) error {
	if mix.Ops <= 0 {
		return fmt.Errorf("scenario: Load needs a positive op budget; use StartLoad for open-ended phases")
	}
	_, wait := r.StartLoad(mix)
	return wait()
}

// StartLoad launches a load phase in the background and returns a stop
// function plus a wait function; faults can then be injected mid-phase.
// With Ops <= 0 the phase runs until stopped.
func (r *Run) StartLoad(mix Mix) (stop func(), wait func() error) {
	if mix.FanoutCap <= 0 {
		mix.FanoutCap = 16
	}
	budget := int64(0)
	if mix.Ops > 0 {
		budget = int64(r.ScaledOps(mix.Ops))
	}
	r.phase++
	phase := r.phase
	var (
		remaining atomic.Int64
		stopped   atomic.Bool
		wg        sync.WaitGroup
	)
	remaining.Store(budget)
	st, err := r.store(mix)
	if err != nil {
		return func() {}, func() error { return err }
	}
	for w := 0; w < r.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.opts.Seed ^ int64(phase)<<20 ^ int64(w)<<8))
			buf := make([]socialgraph.UserID, 0, mix.FanoutCap)
			targets := make([]uint32, 0, mix.FanoutCap)
			floors := make([]uint64, 0, mix.FanoutCap)
			for !stopped.Load() {
				if budget > 0 && remaining.Add(-1) < 0 {
					return
				}
				// Transport-level failures are counted inside oneAccess, not
				// treated as fatal — the invariants judge what the cluster
				// acked, not whether every request of a kill window
				// succeeded.
				r.oneAccess(st, mix, rng, &buf, &targets, &floors)
			}
		}(w)
	}
	stopFn := func() { stopped.Store(true) }
	waitFn := func() error {
		wg.Wait()
		return nil
	}
	return stopFn, waitFn
}

// oneAccess performs one feed poll (and maybe one authoring write): pick a
// reader, resolve its followees from the stream, snapshot invariant floors,
// read, and report outcomes.
func (r *Run) oneAccess(st dynasore.Store, mix Mix, rng *rand.Rand, buf *[]socialgraph.UserID, targets *[]uint32, floors *[]uint64) {
	ctx := context.Background()
	reader := r.Stream.Reader(rng)
	*targets = (*targets)[:0]
	if mix.Hot >= 0 && rng.Float64() < mix.HotFrac {
		*targets = append(*targets, uint32(mix.Hot))
	} else {
		*buf = r.Stream.Followees(reader, (*buf)[:0])
		for _, v := range *buf {
			if len(*targets) >= mix.FanoutCap {
				break
			}
			*targets = append(*targets, uint32(v))
		}
		if len(*targets) == 0 {
			*targets = append(*targets, uint32(reader))
		}
	}
	*floors = (*floors)[:0]
	for _, u := range *targets {
		*floors = append(*floors, r.Check.Floor(u))
	}
	start := time.Now()
	views, err := st.Read(ctx, *targets)
	if err != nil {
		r.failedR.Add(1)
	} else {
		r.readNs.Add(int64(time.Since(start)))
		r.reads.Add(1)
		r.views.Add(int64(len(views)))
		for i, v := range views {
			if i < len(*floors) {
				r.Check.NoteRead((*targets)[i], v.Version, (*floors)[i])
			}
		}
	}
	if rng.Float64() < mix.WriteFrac {
		start = time.Now()
		seq, err := st.Write(ctx, uint32(reader), []byte("post"))
		if err != nil {
			r.failedW.Add(1)
		} else {
			r.writeNs.Add(int64(time.Since(start)))
			r.writes.Add(1)
			r.Check.NoteAck(uint32(reader), seq)
		}
	}
}

// Write posts one payload to user u through the cluster client and records
// the ack — the way steps seed specific views (e.g. the celebrity's).
func (r *Run) Write(u uint32, payload []byte) error {
	seq, err := r.client.Write(context.Background(), u, payload)
	if err != nil {
		return err
	}
	r.Check.NoteAck(u, seq)
	r.writes.Add(1)
	return nil
}

// FailedReads reports how many client read calls have failed so far —
// scenarios that promise zero failed reads assert on it.
func (r *Run) FailedReads() int64 { return r.failedR.Load() }

// SampleEpochs reads every live broker's membership epoch into the epoch
// monitor; steps call it around transitions.
func (r *Run) SampleEpochs() {
	for i := 0; i < r.Rig.NumBrokers(); i++ {
		if b := r.Rig.Broker(i); b != nil {
			r.Check.NoteEpoch(b.Addr(), b.Epoch())
		}
	}
}

// WaitUntil polls cond (forcing a deterministic sync+maintain pass before
// each probe) until it holds or the deadline lapses.
func (r *Run) WaitUntil(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for {
		r.Rig.MaintainAll()
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scenario %s: timed out waiting for %s", r.Scenario.Name, what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Execute runs one scenario to completion: rig up, steps in order, final
// lost-write sweep, teardown — and returns its Result. The returned error
// covers harness failures; invariant violations and scenario-specific
// failures are in Result.Violations (and folded into Err).
func Execute(sc Scenario, opts Options) (Result, error) {
	opts = opts.withDefaults()
	users := sc.Users
	if opts.Users > 0 {
		users = opts.Users
	}
	res := Result{Scenario: sc.Name, Users: users}

	stream, err := socialgraph.NewStream(socialgraph.TwitterConfig, users, opts.Seed)
	if err != nil {
		return res, err
	}
	rig, err := NewRig(sc.Brokers, sc.Servers)
	if err != nil {
		return res, err
	}
	defer rig.Close()

	dialOpts := []dynasore.DialOption{}
	if sc.Direct {
		dialOpts = append(dialOpts, dynasore.WithDirectReads(0))
	}
	client, err := dynasore.DialCluster(context.Background(), rig.BrokerAddrs(), dialOpts...)
	if err != nil {
		return res, err
	}
	defer client.Close()

	var brokerOnly *dynasore.ClusterClient
	if sc.Direct {
		brokerOnly, err = dynasore.DialCluster(context.Background(), rig.BrokerAddrs())
		if err != nil {
			return res, err
		}
		defer brokerOnly.Close()
	}

	run := &Run{
		Scenario:   sc,
		Rig:        rig,
		Stream:     stream,
		Check:      NewChecker(),
		opts:       opts,
		client:     client,
		brokerOnly: brokerOnly,
		perB:       make(map[int]*dynasore.ClusterClient),
	}
	defer func() {
		for _, c := range run.perB {
			c.Close()
		}
	}()

	for _, step := range sc.Steps {
		run.Logf("[%s] step: %s", sc.Name, step.Name)
		run.SampleEpochs()
		if err := step.Do(run); err != nil {
			return run.collect(res), fmt.Errorf("scenario %s: step %q: %w", sc.Name, step.Name, err)
		}
	}
	run.SampleEpochs()

	// Final sweep: every user with an acknowledged write must still read
	// back at or above its acked sequence, through the surviving cluster.
	for _, u := range run.Check.AckedUsers(2000) {
		views, err := client.Read(context.Background(), []uint32{u})
		if err != nil || len(views) != 1 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("final sweep: read of user %d failed: %v", u, err))
			continue
		}
		run.Check.NoteFinalRead(u, views[0].Version)
	}
	return run.collect(res), nil
}

// collect folds the run's counters and the checker's verdict into res.
func (r *Run) collect(res Result) Result {
	res.Reads = r.reads.Load()
	res.Writes = r.writes.Load()
	res.ReadNs = r.readNs.Load()
	res.WriteNs = r.writeNs.Load()
	res.ViewsRead = r.views.Load()
	res.FailedReads = r.failedR.Load()
	res.FailedWrites = r.failedW.Load()
	if st, err := r.client.Stats(context.Background()); err == nil {
		res.FinalEpoch = st.Epoch
		res.DirectReads = st.DirectReads
		res.DirectStale = st.DirectStale
	}
	// The client only learns an epoch from lease traffic; the brokers
	// themselves are authoritative.
	for i := 0; i < r.Rig.NumBrokers(); i++ {
		if b := r.Rig.Broker(i); b != nil && b.Epoch() > res.FinalEpoch {
			res.FinalEpoch = b.Epoch()
		}
	}
	res.Violations = append(res.Violations, r.Check.Violations()...)
	if r.Scenario.HitFloor > 0 && res.ViewsRead > 0 {
		ratio := float64(res.DirectReads) / float64(res.ViewsRead)
		if ratio < r.Scenario.HitFloor {
			res.Violations = append(res.Violations,
				fmt.Sprintf("direct-hit ratio %.2f below floor %.2f (%d direct / %d views)",
					ratio, r.Scenario.HitFloor, res.DirectReads, res.ViewsRead))
		}
	}
	return res
}

// Err returns a single error describing every violation, or nil for a
// clean run.
func (r Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %s: %d invariant violations: %v", r.Scenario, len(r.Violations), r.Violations)
}
