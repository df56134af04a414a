package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"dynasore/internal/telemetry"
)

// putVia sends one opPutView through the cache server's handler, so the
// wire decode of the view and its metadata is part of what is tested.
func putVia(t *testing.T, s *Server, user uint32, v View, placement uint64, limit int) {
	t.Helper()
	body := appendPutMeta(encodeView(binary.LittleEndian.AppendUint32(nil, user), v), 1, placement, limit)
	if _, err := s.handle(telemetry.TraceContext{}, opPutView, body); err != nil {
		t.Fatalf("put: %v", err)
	}
}

// installView installs v on s the way a put of its wire form does.
func installView(s *Server, user uint32, v View, placement uint64, limit int) {
	in, _, _ := decodeView(encodeView(nil, v))
	s.install(user, in, placement, limit)
}

// lookupView returns user's cached view on s, decoded from its wire form.
func lookupView(t testing.TB, s *Server, user uint32) (View, bool) {
	t.Helper()
	cv, ok := s.lookup(user)
	if !ok {
		return View{}, false
	}
	v, _, err := decodeView(cv.wire)
	if err != nil {
		t.Fatalf("user %d: cached bytes do not decode: %v", user, err)
	}
	return v, true
}

// decodedCopy is a cached view decoded from its wire form, with the
// placement token stored beside it.
type decodedCopy struct {
	View
	placement uint64
}

// cached returns user's cached view on s, failing the test on a miss.
func cached(t *testing.T, s *Server, user uint32) decodedCopy {
	t.Helper()
	v, ok := lookupView(t, s, user)
	if !ok {
		t.Fatalf("user %d not cached", user)
	}
	cv, _ := s.lookup(user)
	return decodedCopy{View: v, placement: cv.placement}
}

// TestServerInstallMergesBySeq pins the cache server's install rule: a put
// merges into the cached view by event sequence number, keeps the put's
// cap, and never lowers the version or the placement token.
func TestServerInstallMergesBySeq(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Two brokers' puts, each missing the other's event (5 is still in
	// flight to the broker that sequenced 6, and the other way round),
	// land in both orders: both leave both events at the max version.
	a, b := viewOf(3, 5), viewOf(3, 6)
	for user, order := range map[uint32][]View{1: {a, b}, 2: {b, a}} {
		for _, v := range order {
			putVia(t, s, user, v, 0, 64)
		}
		cv := cached(t, s, user)
		if !slices.Equal(cv.seqs, []uint64{3, 5, 6}) || cv.Version != 6 {
			t.Errorf("user %d: cached seqs %v at version %d, want [3 5 6] at 6", user, cv.seqs, cv.Version)
		}
		if got := string(cv.Events[1]); got != "e5" {
			t.Errorf("user %d: event of seq 5 = %q, want e5", user, got)
		}
	}

	// The put's cap bounds the union: the newest events survive.
	putVia(t, s, 3, viewOf(2, 4, 6), 0, 3)
	putVia(t, s, 3, viewOf(5, 7), 0, 3)
	if cv := cached(t, s, 3); !slices.Equal(cv.seqs, []uint64{5, 6, 7}) || cv.Version != 7 {
		t.Errorf("capped union = %v at version %d, want [5 6 7] at 7", cv.seqs, cv.Version)
	}

	// An older put carrying an older placement token adds its missing
	// event but lowers neither the version nor the fence.
	putVia(t, s, 4, viewOf(6, 8), 9, 64)
	putVia(t, s, 4, viewOf(5), 2, 64)
	cv := cached(t, s, 4)
	if !slices.Equal(cv.seqs, []uint64{5, 6, 8}) || cv.Version != 8 || cv.placement != 9 {
		t.Errorf("after older put: seqs %v, version %d, placement %d; want [5 6 8], 8, 9", cv.seqs, cv.Version, cv.placement)
	}
}

// TestMergeViews pins the union rule on its own: the newest limit events
// of both copies, in's bytes where both hold an event, the put itself
// when nothing of the cached copy survives (no copy is made), and
// otherwise a result sized exactly (a cached view keeps no slack).
func TestMergeViews(t *testing.T) {
	for _, tc := range []struct {
		cur, in View
		limit   int
		want    []uint64
		isPut   bool // the result is the put's own slices
	}{
		{View{}, viewOf(4, 5, 6), 3, []uint64{4, 5, 6}, true},
		{viewOf(4, 5), viewOf(4, 5, 6), 3, []uint64{4, 5, 6}, true},    // grew by one event
		{viewOf(3, 4, 5), viewOf(4, 5, 6), 3, []uint64{4, 5, 6}, true}, // grew at the cap
		{viewOf(1, 2, 3), viewOf(3, 4, 5, 6), 3, []uint64{4, 5, 6}, true},
		{viewOf(1, 2), viewOf(4, 5, 6), 64, []uint64{1, 2, 4, 5, 6}, false},
		{viewOf(1, 2, 7), viewOf(4, 5, 6), 3, []uint64{5, 6, 7}, false},
		{viewOf(6), viewOf(5), 64, []uint64{5, 6}, false},
	} {
		got := mergeViews(tc.cur, tc.in, tc.limit)
		if !slices.Equal(got.seqs, tc.want) {
			t.Errorf("merge %v into %v (limit %d) = %v, want %v", tc.in.seqs, tc.cur.seqs, tc.limit, got.seqs, tc.want)
			continue
		}
		if isPut := &got.Events[len(got.Events)-1] == &tc.in.Events[len(tc.in.Events)-1]; isPut != tc.isPut {
			t.Errorf("merge %v into %v: result is the put's own slices = %v, want %v", tc.in.seqs, tc.cur.seqs, isPut, tc.isPut)
		}
		if !tc.isPut && (cap(got.seqs) != len(tc.want) || cap(got.Events) != len(tc.want)) {
			t.Errorf("merge %v into %v: capacity %d, %d, want exactly %d", tc.in.seqs, tc.cur.seqs, cap(got.seqs), cap(got.Events), len(tc.want))
		}
		for i, seq := range got.seqs {
			if string(got.Events[i]) != fmt.Sprintf("e%d", seq) {
				t.Errorf("merge %v into %v: event %d = %q, want e%d", tc.in.seqs, tc.cur.seqs, i, got.Events[i], seq)
			}
		}
	}
	// Where both copies hold an event, the put's bytes win.
	cur, in := viewOf(5, 6), viewOf(5)
	in.Events[0] = []byte("put")
	if got := mergeViews(cur, in, 64); string(got.Events[0]) != "put" {
		t.Errorf("shared event = %q, want the put's bytes", got.Events[0])
	}
}

// TestInstallKeepsOneBuffer pins who owns a cached view's bytes: every
// install, a put that survives whole as well as a merge that mixes the
// put with the cached copy, writes one buffer of exactly the merged size
// that holds no reference into any put's frame, so scribbling over the
// frames leaves the cached view intact.
func TestInstallKeepsOneBuffer(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const user = 5
	var frames [][]byte
	check := func(what string, want ...uint64) {
		t.Helper()
		cv, _ := s.lookup(user)
		if cap(cv.wire) != len(cv.wire) {
			t.Errorf("%s: cached bytes have cap %d, want exactly %d", what, cap(cv.wire), len(cv.wire))
		}
		for _, frame := range frames {
			for i := range frame {
				frame[i] = 0xee
			}
		}
		v := cached(t, s, user)
		if !slices.Equal(v.seqs, want) {
			t.Fatalf("%s: cached seqs %v after the put frames were overwritten, want %v", what, v.seqs, want)
		}
		for k, seq := range v.seqs {
			if string(v.Events[k]) != fmt.Sprintf("e%d", seq) {
				t.Errorf("%s: event of seq %d = %q after the put frames were overwritten", what, seq, v.Events[k])
			}
		}
	}
	put := func(v View) {
		body := appendPutMeta(encodeView(binary.LittleEndian.AppendUint32(nil, user), v), 1, 0, 64)
		frames = append(frames, body)
		if _, err := s.handle(telemetry.TraceContext{}, opPutView, body); err != nil {
			t.Fatalf("put: %v", err)
		}
	}

	put(viewOf(1, 2)) // into an empty slot
	check("first put", 1, 2)
	put(viewOf(2, 3)) // lacks event 1: the union mixes both copies
	check("mixing merge", 1, 2, 3)
	put(viewOf(1, 2, 3, 4)) // holds the whole union: survives whole
	check("whole put", 1, 2, 3, 4)
}

// getFrameAllocs is what serving one get frame allocates, whatever the
// number of users it names: the answer's header and its list of slices.
const getFrameAllocs = 2

// getBody is an opGetView request naming users.
func getBody(users ...uint32) []byte {
	var body []byte
	for _, u := range users {
		body = binary.LittleEndian.AppendUint32(body, u)
	}
	return body
}

// TestServerGetCopiesNoViewBytes: a get answers with the cached bytes as
// they are. Every view slice of the answer aliases the buffer the server
// keeps, and a get frame allocates the same few bookkeeping objects
// whether it names 1 user or 64.
func TestServerGetCopiesNoViewBytes(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	users := make([]uint32, 64)
	for i := range users {
		users[i] = uint32(7 + i)
		installView(s, users[i], viewOf(1, 2, uint64(3+i)), 0, 64)
	}
	for _, n := range []int{1, 64} {
		body := getBody(users[:n]...)
		resp, err := s.handle(telemetry.TraceContext{}, opGetView, body)
		if err != nil || len(resp) != 1+n {
			t.Fatalf("%d users: %d answer slices, err %v; want a header and %d views", n, len(resp), err, n)
		}
		for i, u := range users[:n] {
			cv, _ := s.lookup(u)
			if w := resp[1+i]; len(w) != len(cv.wire) || &w[0] != &cv.wire[0] {
				t.Errorf("%d users: view of user %d is not the cached buffer", n, u)
			}
		}
		if _, _, err := decodeGetViews(joined(resp)); err != nil {
			t.Errorf("%d users: answer does not decode: %v", n, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if resp, err := s.handle(telemetry.TraceContext{}, opGetView, body); err != nil || len(resp) != 1+n {
				t.Fatalf("get: %d answer slices, err %v", len(resp), err)
			}
		})
		if allocs != getFrameAllocs {
			t.Errorf("%d users: %.1f allocs per get frame, want %d", n, allocs, getFrameAllocs)
		}
	}
}

// TestServerConcurrentPutGet: gets answer with the cached bytes while
// puts of overlapping views replace them. Run under -race, it checks that
// no installed buffer is written again; every answer must decode to
// events that match their sequence numbers.
func TestServerConcurrentPutGet(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const users, rounds = 4, 300
	all := []uint32{0, 1, 2, 3}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range rounds {
				// Overlapping windows from different writers: some puts
				// survive whole, others merge with the cached copy.
				base := uint64(i + w)
				body := appendPutMeta(encodeView(binary.LittleEndian.AppendUint32(nil, uint32(i%users)), viewOf(base, base+2, base+3)), 1, 0, 8)
				if _, err := s.handle(telemetry.TraceContext{}, opPutView, body); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range rounds {
				// One user, or all of them in one frame.
				get := getBody(all[i%users])
				if i%2 == 1 {
					get = getBody(all...)
				}
				resp, err := s.handle(telemetry.TraceContext{}, opGetView, get)
				var views []View
				if err == nil {
					views, _, err = decodeGetViews(joined(resp))
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				for _, v := range views {
					for k, seq := range v.seqs {
						if string(v.Events[k]) != fmt.Sprintf("e%d", seq) {
							t.Errorf("event of seq %d = %q", seq, v.Events[k])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoveReplicaMergesDroppedCopyIntoSurvivor: the copy a removal drops
// can hold an event the survivor lacks at an equal version (the copies
// took puts from brokers whose stores differed). The drop puts it onto
// the survivor, which merges it, so the event survives.
func TestRemoveReplicaMergesDroppedCopyIntoSurvivor(t *testing.T) {
	b, servers, _ := testCluster(t, 2, nil)
	const user = 7
	body := encodePlacementTable([]placementEntry{{user: user, order: []int{0, 1}}})
	if _, err := b.handle(telemetry.TraceContext{}, opPlacementBatch, body); err != nil {
		t.Fatal(err)
	}
	installView(servers[0], user, viewOf(5, 6), 0, 64)
	installView(servers[1], user, viewOf(6), 0, 64)

	if !b.removeReplica(user, 0) {
		t.Fatal("replica on server 0 not removed")
	}
	if _, ok := servers[0].lookup(user); ok {
		t.Error("dropped copy still cached on server 0")
	}
	if cv := cached(t, servers[1], user); !slices.Equal(cv.seqs, []uint64{5, 6}) {
		t.Errorf("survivor holds seqs %v, want [5 6]", cv.seqs)
	}
}

// TestViewCapAboveWireCeilingStillCaches: a view's event count is a uint16
// on the wire, so a larger ViewCap is clamped to it — unclamped, 65536
// would travel as a put cap of 0 and every put would be refused.
func TestViewCapAboveWireCeilingStillCaches(t *testing.T) {
	b, servers, c := testCluster(t, 1, func(cfg *BrokerConfig) { cfg.ViewCap = 1 << 16 })
	if _, err := c.Write(7, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if b.cfg.ViewCap != math.MaxUint16 {
		t.Errorf("ViewCap = %d, want %d", b.cfg.ViewCap, math.MaxUint16)
	}
	if cv := cached(t, servers[0], 7); len(cv.Events) != 1 {
		t.Errorf("cached %d events, want 1", len(cv.Events))
	}
}
