package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/promtext"
	"dynasore/internal/telemetry"
)

// Series the modules already export, read back by name from the telemetry
// registries (the process-wide one, or a broker's own node).
var (
	serverOps   = series{"dynasore_server_op_seconds", "Cache-server op latency."}
	brokerOps   = series{"dynasore_broker_op_seconds", "Broker op latency by operation."}
	walAppend   = series{"dynasore_wal_append_seconds", "Latency of appending one record to the write-ahead log."}
	walFsync    = series{"dynasore_wal_fsync_seconds", "Latency of group-commit fsyncs of the write-ahead log."}
	ckptSave    = series{"dynasore_checkpoint_save_seconds", "Latency of taking and persisting one view-store checkpoint."}
	directStage = series{"dynasore_direct_ladder_total", "Direct-read fast-path outcomes by ladder stage."}
)

type series struct{ name, help string }

func (s series) hist(n *telemetry.Node, labels ...string) promtext.Hist {
	return n.Histogram(s.name, s.help, labels...).Snapshot()
}

func (s series) counter(n *telemetry.Node, labels ...string) int64 {
	return n.Counter(s.name, s.help, labels...).Load()
}

// hist is the count and total time of a histogram, or of a delta of two.
type hist struct {
	count int64
	sum   float64 // seconds
}

func (h hist) sub(o hist) hist { return hist{h.count - o.count, h.sum - o.sum} }
func (h hist) add(o hist) hist { return hist{h.count + o.count, h.sum + o.sum} }

// meanUS is the mean observation in µs (0 without observations).
func (h hist) meanUS() float64 { return ratio(h.sum*1e6, float64(h.count)) }

func fromProm(p promtext.Hist) hist { return hist{p.Count, p.SumSeconds} }

// directStages are the mutually exclusive outcomes of one direct-read
// attempt; only "hit" serves the view without the broker.
var directStages = []string{"hit", "no_lease", "lease_expired", "version_fence", "fallback"}

// snapshot is every counter and histogram the per-layer metrics are deltas
// of, taken at one instant.
type snapshot struct {
	servers []cluster.ServerStats
	brokers []cluster.BrokerStats

	serverGet, serverPut, directGet          hist
	brokerRead, brokerWrite, brokerLease     hist
	syncWrite, walAppend, walFsync, ckptSave hist
	ladder                                   map[string]int64
	gwRead, gwWrite                          hist

	relayBytes [3]int64 // by level, broker↔broker links excluded
	peerBytes  int64
	mem        runtime.MemStats
}

func (r *rig) snapshot(ctx context.Context) (snapshot, error) {
	def := telemetry.Default()
	s := snapshot{
		serverGet: fromProm(serverOps.hist(def, "op", "get")),
		serverPut: fromProm(serverOps.hist(def, "op", "put")),
		directGet: fromProm(serverOps.hist(def, "op", "direct_get")),
		walAppend: fromProm(walAppend.hist(def)),
		walFsync:  fromProm(walFsync.hist(def)),
		ckptSave:  fromProm(ckptSave.hist(def)),
		ladder:    make(map[string]int64),
	}
	for _, st := range directStages {
		s.ladder[st] = directStage.counter(def, "stage", st)
	}
	for _, srv := range r.servers {
		s.servers = append(s.servers, srv.Stats())
	}
	for i, b := range r.brokers {
		s.brokers = append(s.brokers, b.Stats())
		tel := r.brokerTel[i]
		s.brokerRead = s.brokerRead.add(fromProm(brokerOps.hist(tel, "op", "read")))
		s.brokerWrite = s.brokerWrite.add(fromProm(brokerOps.hist(tel, "op", "write")))
		s.brokerLease = s.brokerLease.add(fromProm(brokerOps.hist(tel, "op", "lease")))
		s.syncWrite = s.syncWrite.add(fromProm(brokerOps.hist(tel, "op", "sync_write")))
	}
	for _, rl := range r.relays {
		if rl.peer {
			s.peerBytes += rl.bytes.Load()
		} else {
			s.relayBytes[rl.lvl] += rl.bytes.Load()
		}
	}
	if url := r.gatewayURL(); url != "" {
		text, err := scrape(ctx, url+"/metrics")
		if err != nil {
			return s, err
		}
		s.gwRead = routeHist(text, "/v1/feed")
		s.gwWrite = routeHist(text, "/v1/feed/{user}")
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// scrape fetches a Prometheus text page.
func scrape(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// routeHist reads one route's request-latency histogram from the gateway's
// /metrics page.
func routeHist(text, route string) hist {
	const family = "dsgate_http_request_duration_seconds"
	labels := `{route="` + route + `"} `
	var h hist
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, family+"_sum"+labels); ok {
			h.sum, _ = strconv.ParseFloat(v, 64) // malformed reads as 0
		} else if v, ok := strings.CutPrefix(line, family+"_count"+labels); ok {
			c, _ := strconv.ParseFloat(v, 64)
			h.count = int64(c)
		}
	}
	return h
}

// walWatcher polls the brokers' WAL directories during a phase and keeps
// the largest size each segment file reached, so segments that compaction
// deletes mid-phase still count the bytes appended to them.
type walWatcher struct {
	dirs []string
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	size map[string]int64
}

// segment files are named seg-<n>.wal.
func isSegment(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal")
}

func watchWAL(dirs []string) *walWatcher {
	w := &walWatcher{dirs: dirs, stop: make(chan struct{}), done: make(chan struct{}), size: make(map[string]int64)}
	w.poll()
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *walWatcher) poll() {
	for _, dir := range w.dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue // transient: the next poll retries
		}
		for _, e := range entries {
			if !isSegment(e.Name()) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue // deleted between ReadDir and Info
			}
			key := filepath.Join(dir, e.Name())
			w.mu.Lock()
			if info.Size() > w.size[key] {
				w.size[key] = info.Size()
			}
			w.mu.Unlock()
		}
	}
}

// total is the sum of the largest size seen for every segment.
func (w *walWatcher) total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	for _, s := range w.size {
		n += s
	}
	return n
}

// finish stops polling after one last poll and returns the WAL bytes
// appended since the watcher started.
func (w *walWatcher) finish(before int64) int64 {
	close(w.stop)
	<-w.done
	w.poll()
	return w.total() - before
}

// metric is one named, unit-carrying number of the report.
type metric struct {
	name  string
	unit  string
	value float64
}
