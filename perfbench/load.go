package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynasore/pkg/dynasore"
)

// driver sends scheduled ops through a rig's clients and verifies every
// answer with its checker.
type driver struct {
	w       *workload
	clients []dynasore.Store
	check   *checker
	tags    atomic.Int64 // makes every post's payload unique
	acked   atomic.Int64 // payload bytes of acknowledged posts
}

// outcome classifies one executed op.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opWrong
)

// exec sends o through client c and checks the answer. When sp is non-nil
// it records the client call's span there.
func (d *driver) exec(ctx context.Context, c int, o *op, sp *span) outcome {
	st := d.clients[c]
	if o.write {
		p := payload(o.user, int(d.tags.Add(1)), d.w.payload)
		start := time.Now()
		seq, err := st.Write(ctx, o.user, p)
		sp.set(start)
		if err != nil {
			return opFailed
		}
		d.check.noteAck(o.user, seq)
		d.acked.Add(int64(len(p)))
		return opOK
	}
	var fb [readCap]uint64
	floors := d.check.floors(fb[:0], o.targets)
	start := time.Now()
	views, err := st.Read(ctx, o.targets)
	sp.set(start)
	if err != nil {
		return opFailed
	}
	if d.check.checkRead(o.targets, floors, views) > 0 {
		return opWrong
	}
	return opOK
}

// tally counts a phase's ops by outcome.
type tally struct {
	attempted, failed, wrong int64
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case opFailed:
		t.failed++
	case opWrong:
		t.wrong++
	}
}

func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
}

// openResult is the raw record of one open-loop phase.
type openResult struct {
	ops     []op
	latency []time.Duration // per op, from its due time; failedSample if it failed
	lag     []time.Duration // per op, send time minus due time
	tally   tally
}

// openLoop sends ops at their due times, at most inflight outstanding:
// when the cap is reached the next op waits, so a stall shows up as
// lateness. Every op is timed from its due time. With a tracer, each op
// records a root span and its client-call span.
func (d *driver) openLoop(ctx context.Context, ops []op, tr *tracer) openResult {
	res := openResult{
		ops:     ops,
		latency: make([]time.Duration, len(ops)),
		lag:     make([]time.Duration, len(ops)),
	}
	outcomes := make([]outcome, len(ops))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].due)
		sleepUntil(due)
		sem <- struct{}{}
		res.lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			root, call := tr.opSpans(i, ops[i].write, due)
			outcomes[i] = d.exec(ctx, i%len(d.clients), &ops[i], call)
			end := time.Now()
			root.end(end)
			res.latency[i] = end.Sub(due)
			if outcomes[i] == opFailed {
				res.latency[i] = failedSample
			}
		}(i, due)
	}
	wg.Wait()
	for _, o := range outcomes {
		res.tally.add(o)
	}
	return res
}

// closedLoop runs one goroutine per client, each sending its next op as
// soon as the previous one completed, until every op has been sent once.
// It returns the ops' tally and the time taken.
func (d *driver) closedLoop(ctx context.Context, ops []op) (tally, time.Duration) {
	var next atomic.Int64
	tallies := make([]tally, len(d.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				tallies[c].add(d.exec(ctx, c, &ops[i], nil))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var t tally
	for _, u := range tallies {
		t.merge(u)
	}
	return t, elapsed
}

// seed posts one event for every user, spread over a few goroutines per
// client so it runs at the cluster's write capacity.
func (d *driver) seed(ctx context.Context, users int) error {
	const perClient = 8
	var next atomic.Int64
	errs := make([]error, perClient*len(d.clients))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				u := next.Add(1) - 1
				if u >= int64(users) {
					return
				}
				o := op{write: true, user: uint32(u)}
				if d.exec(ctx, g%len(d.clients), &o, nil) != opOK {
					errs[g] = fmt.Errorf("seed post for user %d failed", u)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sleepUntil blocks until t. The runtime's timers wake up to a millisecond
// late on Linux, which would add that much to every open-loop latency, so
// the last stretch sleeps in nanosleep, which oversleeps by tens of µs.
func sleepUntil(t time.Time) {
	for {
		left := time.Until(t)
		if left <= 0 {
			return
		}
		if left > 2*time.Millisecond {
			time.Sleep(left - 2*time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(int64(left))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
