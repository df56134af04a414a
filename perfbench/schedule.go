package main

import (
	"math/rand"
	"time"

	"dynasore/internal/socialgraph"
)

// op is one scheduled call: a Write(user) post, or a Read of user's
// followees (targets). due is the send time relative to the phase start;
// closed-loop schedules leave it zero.
type op struct {
	write   bool
	user    uint32
	targets []uint32
	due     time.Duration
}

// buildSchedule draws n ops from the workload's access stream: Zipf-skewed
// active users, each either posting (a writeFrac share of ops) or reading
// the feed of its followees, capped at readCap targets (a user who follows
// nobody reads its own view). Ops are spaced at the constant rate (ops/s);
// rate 0 leaves every due time zero. The same (stream, seed, n, rate)
// always yields the same schedule.
func buildSchedule(w *workload, st *socialgraph.Stream, seed int64, n int, rate float64) []op {
	rng := rand.New(rand.NewSource(seed))
	out := make([]op, n)
	// Exactly round(n·writeFrac) posts, at random positions, so every
	// seed yields the same number of write samples.
	for _, i := range rng.Perm(n)[:int(float64(n)*w.writeFrac+0.5)] {
		out[i].write = true
	}
	ends := make([]int, n)
	// One flat backing array keeps a schedule to a handful of allocations
	// however many ops it holds; reads slice it once it stops growing.
	var flat []uint32
	var buf []socialgraph.UserID
	for i := range out {
		u := st.Reader(rng)
		out[i].user = uint32(u)
		if rate > 0 {
			out[i].due = time.Duration(float64(i) * float64(time.Second) / rate)
		}
		if !out[i].write {
			start := len(flat)
			buf = st.Followees(u, buf[:0])
			for _, v := range buf {
				if len(flat)-start == readCap {
					break
				}
				flat = append(flat, uint32(v))
			}
			if len(flat) == start {
				flat = append(flat, uint32(u))
			}
		}
		ends[i] = len(flat)
	}
	start := 0
	for i := range out {
		if !out[i].write {
			out[i].targets = flat[start:ends[i]:ends[i]]
		}
		start = ends[i]
	}
	return out
}
