package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, the op
// it served (-1 outside ops), the index of the span that caused it (-1 for
// a root), and its start and end in ns since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	epoch time.Time
}

// set records a call that started at start and ends now. Nil-safe, so
// untraced runs pass nil.
func (s *span) set(start time.Time) {
	if s == nil {
		return
	}
	s.Start = int64(start.Sub(s.epoch))
	s.End = int64(time.Since(s.epoch))
}

// end closes a span opened at construction.
func (s *span) end(t time.Time) {
	if s == nil {
		return
	}
	s.End = int64(t.Sub(s.epoch))
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory: two per open-loop op (the op from its
// due time, and the client call inside it), preallocated so recording
// takes no lock, plus the set-up spans.
type tracer struct {
	epoch time.Time
	// readCall and writeCall name the client-call spans after the layer
	// the benchmark calls: the cluster client, or the gateway client.
	readCall, writeCall string
	ops                 []span

	mu    sync.Mutex
	other []span
}

func newTracer(n int, gateway bool) *tracer {
	t := &tracer{epoch: time.Now(), ops: make([]span, 2*n), readCall: "client.read", writeCall: "client.write"}
	if gateway {
		t.readCall, t.writeCall = "gateway.read", "gateway.write"
	}
	return t
}

// opSpans returns op i's root span, started at due, and its call span.
// A nil tracer returns nil spans.
func (t *tracer) opSpans(i int, write bool, due time.Time) (root, call *span) {
	if t == nil {
		return nil, nil
	}
	root, call = &t.ops[2*i], &t.ops[2*i+1]
	name := t.readCall
	if write {
		name = t.writeCall
	}
	*root = span{Name: "op", Op: i, Parent: -1, Start: int64(due.Sub(t.epoch)), epoch: t.epoch}
	*call = span{Name: name, Op: i, Parent: 2 * i, epoch: t.epoch}
	return root, call
}

// record adds a span outside the op loop (set-up stages, counter
// snapshots). Nil-safe.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.other = append(t.other, span{Name: name, Op: -1, Parent: -1,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// callMean returns the mean duration of the op call spans of one kind.
func (t *tracer) callMean(write bool) time.Duration {
	name := t.readCall
	if write {
		name = t.writeCall
	}
	var n, sum int64
	for i := 1; i < len(t.ops); i += 2 {
		if t.ops[i].Name == name {
			n++
			sum += int64(t.ops[i].duration())
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}

// write stores every span, one JSON object per line, op spans first so a
// span's parent is the line index of its root.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, group := range [][]span{t.ops, t.other} {
		for i := range group {
			if err := enc.Encode(&group[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
