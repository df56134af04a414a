package main

import (
	"time"

	"dynasore/internal/socialgraph"
)

// workload is one traffic mix on one cluster shape. README.md explains why
// each was chosen.
type workload struct {
	name  string
	graph socialgraph.GeneratorConfig
	users int
	// writeFrac is the share of ops that are posts; payload is the size of
	// one post in bytes. viewCap bounds the events kept per view, so the
	// size of a Read answer; 0 keeps the broker's default of 64.
	writeFrac float64
	payload   int
	viewCap   int

	brokers int
	direct  bool // clients read leased views straight from cache servers
	gateway bool // clients go through the in-process HTTP gateway

	walSyncEvery    int
	checkpointEvery time.Duration
	compactAfter    int
	syncEvery       time.Duration

	// rate is the open-loop send rate in ops/s; its op count is rate × the
	// open-loop share of --seconds. capacity is about what two closed-loop
	// clients complete per second on two shared 2.1 GHz cores; the
	// closed-loop slices hold capacity × the rest of --seconds ops in all.
	// warmOps is the closed-loop warm-up length.
	rate     float64
	capacity float64
	warmOps  int
}

// workloads lists every workload by name, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:            "post-storm",
		graph:           socialgraph.TwitterConfig,
		users:           10000,
		writeFrac:       0.55,
		payload:         512,
		viewCap:         16,
		brokers:         2,
		walSyncEvery:    256,
		checkpointEvery: 10 * time.Second,
		compactAfter:    1,
		syncEvery:       200 * time.Millisecond,
		rate:            1000,
		capacity:        7000,
		warmOps:         8000,
	},
	{
		name:      "edge-mix",
		graph:     socialgraph.FacebookConfig,
		users:     5000,
		writeFrac: 0.20,
		payload:   64,
		brokers:   1,
		direct:    true,
		gateway:   true,
		rate:      250,
		capacity:  780,
		warmOps:   800,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Settings shared by every workload. The policy pass runs often enough
// that warm-up and the measured phase each span several passes.
const (
	// readCap caps the targets of one Read.
	readCap = 32
	// inflight caps concurrently outstanding open-loop ops.
	inflight    = 32
	policyEvery = 500 * time.Millisecond
	// extraMemory is the Table 2 operating point: server capacity for 30 %
	// more views than one copy of each.
	extraMemory = 0.30
)
