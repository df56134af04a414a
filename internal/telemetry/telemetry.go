// Package telemetry is the cluster's stdlib-only observability layer:
// sharded counters and fixed-bucket latency histograms with lock-free
// record paths, a sampled tracing system whose 17-byte context rides
// each traced wire frame, and an HTTP ops surface (Prometheus-text
// /metrics, /debug/traces, pprof) every dynasore-node can expose.
//
// Instruments are registered once (typically into struct fields at
// construction time) and recorded lock-free thereafter; the registry
// mutex is only taken at registration and scrape time, never on the
// request path. Most processes use the shared Default() node; tests
// and the scenario harness build private Nodes so their counts are
// isolated.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/promtext"
)

// Node is one process's (or, in tests, one in-process cluster
// member's) telemetry state: the instrument registry, the trace
// sampler, and the ring of recently completed spans.
type Node struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	insts []*instrument

	// sampleEvery mints a sampled TraceContext for one in every N ops
	// (0 disables minting); slowNanos is the slow-trace log threshold.
	sampleEvery atomic.Int64
	slowNanos   atomic.Int64
	seq         atomic.Uint64
	idSeed      uint64

	rec recorder
}

// instrument is one registered series: a family name, its help text,
// a rendered label body, and exactly one of hist/counter.
type instrument struct {
	name    string
	help    string
	labels  string
	hist    *Histogram
	counter *Counter
}

// defaultSampleEvery samples one trace per 1024 client ops — cheap
// enough to leave on, frequent enough that a minute of load fills the
// span ring.
const defaultSampleEvery = 1024

// defaultSlowThreshold is the span duration beyond which End emits a
// slow-trace log line.
const defaultSlowThreshold = 100 * time.Millisecond

// New creates an isolated Node.
func New() *Node {
	n := &Node{
		byKey:  make(map[string]*instrument),
		idSeed: uint64(time.Now().UnixNano()),
	}
	n.sampleEvery.Store(defaultSampleEvery)
	n.slowNanos.Store(int64(defaultSlowThreshold))
	return n
}

// defaultNode is the process-wide Node, created on first use.
var (
	defaultNode     *Node
	defaultNodeOnce sync.Once
)

// Default returns the process-wide Node. Production binaries run all
// their telemetry through it; in-process rigs that need isolation
// build their own with New.
func Default() *Node {
	defaultNodeOnce.Do(func() { defaultNode = New() })
	return defaultNode
}

// SetSampleEvery sets the trace sampling rate: Sample mints a sampled
// context once per n calls. n <= 0 disables minting entirely.
func (n *Node) SetSampleEvery(every int) {
	n.sampleEvery.Store(int64(every))
}

// SetSlowThreshold sets the span duration beyond which End emits a
// slow-trace log line; d <= 0 restores the default.
func (n *Node) SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		d = defaultSlowThreshold
	}
	n.slowNanos.Store(int64(d))
}

// Histogram returns (registering on first use) the latency histogram
// named name with the given alternating label key/value pairs. help is
// only recorded on first registration. Call at construction time and
// keep the pointer: the lookup takes the registry lock.
func (n *Node) Histogram(name, help string, labelPairs ...string) *Histogram {
	inst := n.lookup(name, help, promtext.Labels(labelPairs...), false)
	return inst.hist
}

// Counter returns (registering on first use) the counter named name
// with the given alternating label key/value pairs. Like Histogram,
// resolve once and keep the pointer.
func (n *Node) Counter(name, help string, labelPairs ...string) *Counter {
	inst := n.lookup(name, help, promtext.Labels(labelPairs...), true)
	return inst.counter
}

// lookup finds or creates the instrument for one series key.
func (n *Node) lookup(name, help, labels string, counter bool) *instrument {
	key := name + "{" + labels + "}"
	n.mu.Lock()
	defer n.mu.Unlock()
	if inst, ok := n.byKey[key]; ok {
		if (inst.counter != nil) == counter {
			return inst
		}
		// A name reused across kinds is a programming error; return a
		// detached instrument so the caller still gets a working one
		// rather than a nil deref, and the registry keeps the original.
		inst = &instrument{name: name, help: help, labels: labels}
		if counter {
			inst.counter = &Counter{}
		} else {
			inst.hist = newHistogram()
		}
		return inst
	}
	inst := &instrument{name: name, help: help, labels: labels}
	if counter {
		inst.counter = &Counter{}
	} else {
		inst.hist = newHistogram()
	}
	n.byKey[key] = inst
	n.insts = append(n.insts, inst)
	return inst
}

// Sample mints the trace context for one client-originated operation:
// one call in every SetSampleEvery returns a sampled context with
// fresh trace and span IDs; the rest return the zero (unsampled)
// context, which costs receivers nothing.
func (n *Node) Sample() TraceContext {
	every := n.sampleEvery.Load()
	if every <= 0 {
		return TraceContext{}
	}
	seq := n.seq.Add(1)
	if seq%uint64(every) != 0 {
		return TraceContext{}
	}
	id := splitmix64(n.idSeed + seq)
	return TraceContext{TraceID: id, SpanID: splitmix64(id), Flags: FlagSampled}
}

// splitmix64 is the SplitMix64 output function: a cheap, well-mixed
// 64-bit permutation used to mint trace and span IDs from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WriteMetrics renders every registered instrument in Prometheus text
// exposition format: families sorted by name with one HELP/TYPE block
// each, series sorted by label body within a family.
func (n *Node) WriteMetrics(b *strings.Builder) {
	n.mu.Lock()
	insts := make([]*instrument, len(n.insts))
	copy(insts, n.insts)
	n.mu.Unlock()
	sort.SliceStable(insts, func(i, j int) bool {
		if insts[i].name != insts[j].name {
			return insts[i].name < insts[j].name
		}
		return insts[i].labels < insts[j].labels
	})
	lastFamily := ""
	for _, inst := range insts {
		if inst.name != lastFamily {
			typ := "histogram"
			if inst.counter != nil {
				typ = "counter"
			}
			promtext.WriteHeader(b, inst.name, typ, inst.help)
			lastFamily = inst.name
		}
		if inst.counter != nil {
			promtext.WriteInt(b, inst.name, inst.labels, inst.counter.Load())
			continue
		}
		promtext.WriteHistogram(b, inst.name, inst.labels, inst.hist.Snapshot())
	}
}
