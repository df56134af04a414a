package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/socialgraph"
	"dynasore/pkg/dynasore"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w := findWorkload("edge-mix")
	st, err := socialgraph.NewStream(w.graph, 2000, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	a := buildSchedule(w, st, 7, 400, 100)
	b := buildSchedule(w, st, 7, 400, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(w, st, 8, 400, 100)) {
		t.Fatal("different seeds built the same schedule")
	}
	writes := 0
	for i, o := range a {
		if want := time.Duration(i) * 10 * time.Millisecond; o.due != want {
			t.Fatalf("op %d due at %v, want %v", i, o.due, want)
		}
		if o.write {
			writes++
			continue
		}
		if len(o.targets) == 0 || len(o.targets) > readCap {
			t.Fatalf("op %d reads %d targets, want 1..%d", i, len(o.targets), readCap)
		}
	}
	if writes != 80 { // 20 % of 400
		t.Fatalf("%d writes in 400 ops, want exactly 80", writes)
	}
	// 4 s of ops at 100 ops/s make a full 3 s block and a 1 s one, each
	// timed from its own start.
	blocks := splitBlocks(a)
	if len(blocks) != 2 || len(blocks[0]) != 300 || len(blocks[1]) != 100 {
		t.Fatalf("%d blocks, want two of 300 and 100 ops", len(blocks))
	}
	if blocks[1][0].due != 0 || blocks[1][99].due != 990*time.Millisecond || a[300].due != 3*time.Second {
		t.Errorf("second block due %v..%v, want 0..990ms (schedule left unchanged)", blocks[1][0].due, blocks[1][99].due)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 200; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 100 * time.Millisecond}, {0.99, 198 * time.Millisecond}, {1, 200 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(1..200 ms, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]time.Duration{3, failedSample}, 0.5); got != 3 {
		t.Errorf("median of {3, failed} = %v, want 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4 1 3 2) = %v, want 2.5", got)
	}

	// Three open-loop blocks whose read medians are 1, 2 and 50 ms (one
	// host stall): the gated value is the middle block's, 2 ms.
	var opens []openResult
	for k, lat := range [][]time.Duration{{1, 1, 9}, {2, 2, 2}, {50, 50, 1}} {
		var res openResult
		for _, l := range lat {
			res.ops = append(res.ops, op{})
			res.latency = append(res.latency, l*time.Millisecond)
		}
		if k == 1 {
			res.ops = append(res.ops, op{write: true})
			res.latency = append(res.latency, 7*time.Millisecond)
		}
		opens = append(opens, res)
	}
	if got := blockPercentile(opens, false, 0.5); got != 2 {
		t.Errorf("block median of read p50s = %v ms, want 2", got)
	}
	if got := blockPercentile(opens, true, 0.5); got != 7 {
		t.Errorf("block median of write p50s = %v ms, want 7 (blocks without writes skipped)", got)
	}
}

func TestClassifyLevels(t *testing.T) {
	for _, c := range []struct {
		a, b cluster.Position
		want level
	}{
		{cluster.Position{Zone: 0, Rack: 0}, cluster.Position{Zone: 0, Rack: 0}, levelRack},
		{cluster.Position{Zone: 0, Rack: 0}, cluster.Position{Zone: 0, Rack: 1}, levelZone},
		{cluster.Position{Zone: 0, Rack: 0}, cluster.Position{Zone: 1, Rack: 0}, levelTop},
		{cluster.Position{Zone: 2, Rack: 5}, cluster.Position{Zone: 1, Rack: 5}, levelTop},
	} {
		if got := classify(c.a, c.b); got != c.want {
			t.Errorf("classify(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// The layout puts one server at each of rack and zone level, two
	// beyond the top switch.
	var n [3]int
	for _, pos := range serverLayout {
		n[classify(frontEnd, pos)]++
	}
	if n != [3]int{1, 1, 2} {
		t.Errorf("servers per level (rack, zone, top) = %v, want [1 1 2]", n)
	}
}

// staleStore serves every user's first-read view forever: reads return an
// old version once the user has written since.
type staleStore struct {
	dynasore.Store
	mu   sync.Mutex
	seen map[uint32]dynasore.View
}

func (s *staleStore) Read(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
	views, err := s.Store.Read(ctx, targets)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, u := range targets {
		if old, ok := s.seen[u]; ok && err == nil {
			views[i] = old
		} else if err == nil {
			s.seen[u] = views[i]
		}
	}
	return views, err
}

// droppingStore acknowledges writes without performing them.
type droppingStore struct {
	dynasore.Store
	next atomic.Uint64
}

func (s *droppingStore) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	return s.next.Add(1 << 20), nil
}

// swappingStore answers a read with the targets' views in reverse order.
type swappingStore struct{ dynasore.Store }

func (s swappingStore) Read(ctx context.Context, targets []uint32) ([]dynasore.View, error) {
	views, err := s.Store.Read(ctx, targets)
	for i, j := 0, len(views)-1; i < j; i, j = i+1, j-1 {
		views[i], views[j] = views[j], views[i]
	}
	return views, err
}

func TestCheckerCatchesWrongOutputs(t *testing.T) {
	ctx := context.Background()
	eng, err := dynasore.Open(dynasore.EngineConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	w := &workload{users: 8, payload: 16}
	newDriver := func(st dynasore.Store) *driver {
		return &driver{w: w, clients: []dynasore.Store{st}, check: newChecker(w.users)}
	}
	read := &op{targets: []uint32{1, 2, 3}}
	post := &op{write: true, user: 2}

	honest := newDriver(eng)
	if err := honest.seed(ctx, w.users); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*op{read, post, read} {
		if got := honest.exec(ctx, 0, o, nil); got != opOK {
			t.Fatalf("honest store: outcome %v, want ok (%s)", got, honest.check.firstViolation())
		}
	}
	if lost := honest.check.sweep(ctx, eng, 4); lost != 0 {
		t.Fatalf("honest store: sweep found %d lost writes (%s)", lost, honest.check.firstViolation())
	}

	stale := newDriver(&staleStore{Store: eng, seen: make(map[uint32]dynasore.View)})
	if err := stale.seed(ctx, w.users); err != nil {
		t.Fatal(err)
	}
	stale.exec(ctx, 0, read, nil)
	stale.exec(ctx, 0, post, nil)
	if got := stale.exec(ctx, 0, read, nil); got != opWrong {
		t.Errorf("stale store: read after a post: outcome %v, want wrong", got)
	}

	drop := newDriver(&droppingStore{Store: eng})
	if err := drop.seed(ctx, w.users); err != nil {
		t.Fatal(err)
	}
	if got := drop.exec(ctx, 0, read, nil); got != opWrong {
		t.Errorf("dropping store: read of dropped posts: outcome %v, want wrong", got)
	}
	if lost := drop.check.sweep(ctx, eng, 3); lost != w.users {
		t.Errorf("dropping store: sweep found %d lost writes, want %d", lost, w.users)
	}

	swap := newDriver(swappingStore{eng})
	if got := swap.exec(ctx, 0, read, nil); got != opWrong {
		t.Errorf("swapping store: outcome %v, want wrong (events name another user)", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints and the
// ones BENCHMARK.json declares the same, names and units alike.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	open := openResult{ops: []op{{}}, latency: []time.Duration{1}, lag: []time.Duration{1}}
	if got, want := names(endToEnd(1, []openResult{open}, 0, 0, 0)), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics\n got %q\nwant %q", got, want)
	}
	l := layerInputs{w: workloads[0], open: open, tr: newTracer(1, false)}
	if got, want := names(l.metrics()), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics\n got %q\nwant %q", got, want)
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	var declaredWL []string
	for _, w := range spec.Workloads {
		declaredWL = append(declaredWL, w.Name)
	}
	if !reflect.DeepEqual(wl, declaredWL) {
		t.Errorf("workloads %q, BENCHMARK.json declares %q", wl, declaredWL)
	}
}
