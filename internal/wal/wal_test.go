package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("hello"), []byte("world"), {}, []byte("third")}
	for i, p := range want {
		seq, err := l.Append(uint32(i%2), int64(i), p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Errorf("seq = %d, want %d", seq, i)
		}
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if !bytes.Equal(r.Payload, want[i]) {
			t.Errorf("record %d payload %q, want %q", i, r.Payload, want[i])
		}
		if r.User != uint32(i%2) || r.At != int64(i) {
			t.Errorf("record %d metadata mismatch: %+v", i, r)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got != 10 {
		t.Errorf("NextSeq after reopen = %d, want 10", got)
	}
	seq, err := l2.Append(1, 0, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Errorf("appended seq = %d, want 10", seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("a"), 64)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Errorf("segments = %d, want >= 3 after rotation", len(entries))
	}
	// Everything still replays across segments.
	l2, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Replay(func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("replayed %d, want 20", count)
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, 0, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file by appending garbage (simulating a torn write).
	path := filepath.Join(dir, segmentName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Replay(func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("replayed %d, want 5 (torn tail dropped)", count)
	}
}

// TestTornFinalRecordThenAppend is the crash-mid-Append scenario: the
// newest segment ends in a torn record. Open must truncate the torn tail so
// records appended after the restart are replayable — without truncation
// they would sit behind the torn bytes, where replay never reaches them.
func TestTornFinalRecordThenAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, 0, []byte("pre-crash")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a half-written record at the tail (a valid-looking
	// header promising more payload than was flushed).
	path := filepath.Join(dir, segmentName(0))
	torn := make([]byte, headerSize+2)
	binary.LittleEndian.PutUint32(torn[4:8], 100) // claims 100 payload bytes
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: the torn tail is dropped, sequencing continues, and a
	// post-crash append is visible to replay.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextSeq(); got != 3 {
		t.Errorf("NextSeq after torn-tail recovery = %d, want 3", got)
	}
	if _, err := l2.Append(1, 0, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	var got []string
	if err := l3.Replay(func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3] != "post-crash" {
		t.Fatalf("replayed %q, want 3 pre-crash records then post-crash", got)
	}
}

func TestAppendRecordPreservesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendRecord(Record{Seq: 7, User: 1, At: 2, Payload: []byte("replicated")}); err != nil {
		t.Fatal(err)
	}
	// Local sequencing must jump past the replicated record.
	seq, err := l.Append(2, 0, []byte("local"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Errorf("local seq after replicated 7 = %d, want 8", seq)
	}
	var seqs []uint64
	if err := l.Replay(func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 7 || seqs[1] != 8 {
		t.Errorf("replayed seqs = %v, want [7 8]", seqs)
	}
}

func TestViewStoreApplyReplicatedOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenViewStore(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Seq: 5, User: 9, At: 1, Payload: []byte("second")}
	if _, err := vs.ApplyReplicated(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := vs.ApplyReplicated(rec); err != nil { // duplicate delivery
		t.Fatal(err)
	}
	view, ver := vs.View(9)
	if len(view) != 1 || ver != 5 {
		t.Fatalf("after duplicate apply: %d events at version %d, want 1 at 5", len(view), ver)
	}
	// An event delivered late fills its gap in sequence order instead of
	// being dropped; the version never regresses.
	if _, err := vs.ApplyReplicated(Record{Seq: 3, User: 9, At: 0, Payload: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	view, ver = vs.View(9)
	if len(view) != 2 || ver != 5 {
		t.Fatalf("after late apply: %d events at version %d, want 2 at 5", len(view), ver)
	}
	if string(view[0].Payload) != "first" || string(view[1].Payload) != "second" {
		t.Errorf("events out of sequence order: %q, %q", view[0].Payload, view[1].Payload)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	// The replicated events survive restart with their original sequences
	// and order, even though the log holds them in arrival order.
	vs2, err := OpenViewStore(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	view, ver = vs2.View(9)
	if len(view) != 2 || ver != 5 || string(view[0].Payload) != "first" {
		t.Errorf("recovered replicated view = %d events at %d (%q...)", len(view), ver, view[0].Payload)
	}
}

func TestSequenceStridePartitionsSeqSpace(t *testing.T) {
	// Two logs of a two-broker cluster: broker 0 mints even sequence
	// numbers, broker 1 odd ones — they can never collide.
	l0, err := Open(t.TempDir(), Options{SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	dir1 := t.TempDir()
	l1, err := Open(dir1, Options{SeqStride: 2, SeqOffset: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := 0; i < 3; i++ {
		s0, err := l0.Append(1, 0, []byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		s1, err := l1.Append(1, 0, []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s0, s1)
	}
	want := []uint64{0, 1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved seqs = %v, want %v", got, want)
		}
	}
	// Replicating a foreign (even) record advances broker 1 past it but
	// stays on its own residue class.
	if err := l1.AppendRecord(Record{Seq: 10, User: 2, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if seq, err := l1.Append(1, 0, []byte("c")); err != nil || seq != 11 {
		t.Fatalf("seq after foreign 10 = %d (%v), want 11", seq, err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	// The residue class survives reopen.
	l1b, err := Open(dir1, Options{SeqStride: 2, SeqOffset: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l1b.Close()
	if seq, err := l1b.Append(1, 0, []byte("d")); err != nil || seq != 13 {
		t.Fatalf("seq after reopen = %d (%v), want 13", seq, err)
	}
	// An offset at or above the stride is a config mistake.
	if _, err := Open(t.TempDir(), Options{SeqStride: 2, SeqOffset: 2}); err == nil {
		t.Error("offset >= stride accepted")
	}
}

func TestCorruptMiddleStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, 0, []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle record's payload.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := headerSize + 6
	data[recLen+headerSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Replay(func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("replayed %d records, want 1 (stop at corruption)", count)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 0, []byte("x")); err == nil {
		t.Error("append after close succeeded")
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, 0, make([]byte, maxPayloadSize+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestViewStoreBasics(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenViewStore(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := vs.Append(7, int64(i), []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	view, ver := vs.View(7)
	if len(view) != 3 {
		t.Fatalf("view has %d events, want 3 (capped)", len(view))
	}
	if string(view[0].Payload) != "e2" || string(view[2].Payload) != "e4" {
		t.Errorf("view contents wrong: %q..%q", view[0].Payload, view[2].Payload)
	}
	if ver != 4 {
		t.Errorf("version = %d, want 4", ver)
	}
	if got, _ := vs.View(99); len(got) != 0 {
		t.Errorf("missing user view has %d events", len(got))
	}
	if n := len(vs.Snapshot().Views); n != 1 {
		t.Errorf("users = %d, want 1", n)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestViewStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenViewStore(dir, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 4; u++ {
		for i := 0; i < 3; i++ {
			if _, err := vs.Append(u, int64(i), []byte(fmt.Sprintf("u%d-e%d", u, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantVer := vs.Version(3)
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open ("recover") and verify every view rebuilt identically.
	vs2, err := OpenViewStore(dir, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if n := len(vs2.Snapshot().Views); n != 4 {
		t.Fatalf("recovered %d users, want 4", n)
	}
	view, ver := vs2.View(3)
	if len(view) != 3 || ver != wantVer {
		t.Errorf("recovered view len=%d ver=%d, want 3/%d", len(view), ver, wantVer)
	}
	if string(view[2].Payload) != "u3-e2" {
		t.Errorf("last event = %q, want u3-e2", view[2].Payload)
	}
}

func TestViewStoreSequencePropertyAcrossUsers(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenViewStore(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	var lastSeq uint64
	first := true
	f := func(user uint8, payload []byte) bool {
		seq, err := vs.Append(uint32(user), 0, payload)
		if err != nil {
			return false
		}
		if !first && seq != lastSeq+1 {
			return false // sequence numbers must be dense and increasing
		}
		first = false
		lastSeq = seq
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGroupCommitSurvivesCloseAndRotate exercises the SyncEvery batching:
// appends between fsyncs stay buffered (unsynced grows), the batch is
// flushed on rotation and on Close, and everything is replayable after a
// reopen.
func TestGroupCommitSurvivesCloseAndRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 4, MaxSegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(1, 0, []byte("batched")); err != nil {
			t.Fatal(err)
		}
	}
	// 6 appends with SyncEvery 4: one batch flushed, two records pending.
	l.mu.Lock()
	pending := l.unsynced
	l.mu.Unlock()
	if pending != 2 {
		t.Errorf("unsynced after 6 appends at SyncEvery=4: %d, want 2", pending)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Replay(func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Errorf("replayed %d records after group-commit close, want 6", count)
	}

	// Rotation flushes the retiring segment's pending batch.
	dir2 := t.TempDir()
	l3, err := Open(dir2, Options{SyncEvery: 100, MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // each record > 128/5 bytes: rotates repeatedly
		if _, err := l3.Append(1, 0, bytes.Repeat([]byte("r"), 120)); err != nil {
			t.Fatal(err)
		}
	}
	l3.mu.Lock()
	pending = l3.unsynced
	l3.mu.Unlock()
	if pending != 0 {
		t.Errorf("unsynced after rotations: %d, want 0 (flushed per rotate)", pending)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncOptionsNormalize pins the Sync/SyncEvery interplay: Sync alone is
// SyncEvery 1, an explicit SyncEvery wins over Sync, and neither means no
// per-append fsync.
func TestSyncOptionsNormalize(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want int
	}{
		{Options{}, 0},
		{Options{Sync: true}, 1},
		{Options{SyncEvery: 8}, 8},
		{Options{Sync: true, SyncEvery: 8}, 8},
	} {
		if got := tc.opts.syncEvery(); got != tc.want {
			t.Errorf("syncEvery(%+v) = %d, want %d", tc.opts, got, tc.want)
		}
	}
}

// TestDropBeforeRemovesCoveredSegments exercises compaction: segments
// wholly before a recorded position are deleted, later records still
// replay, and — via the persisted sequence floor — a plain reopen of the
// compacted log never re-mints a dropped sequence number even when the
// highest sequence number lived only in a dropped segment.
func TestDropBeforeRemovesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 256, SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	// A high-sequence replicated record early in the log, then enough local
	// appends to rotate several times.
	if err := l.AppendRecord(Record{Seq: 1001, User: 5, Payload: []byte("foreign-high")}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("a"), 64)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(1, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	pos := l.Pos()
	if pos.Seg < 2 {
		t.Fatalf("need several segments, at %+v", pos)
	}
	if n, err := l.SegmentsBefore(pos); err != nil || n != pos.Seg {
		t.Fatalf("SegmentsBefore = %d (%v), want %d", n, err, pos.Seg)
	}
	nextBefore := l.NextSeq()
	dropped, err := l.DropBefore(pos)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != pos.Seg {
		t.Fatalf("dropped %d segments, want %d", dropped, pos.Seg)
	}
	if n, _ := l.SegmentsBefore(pos); n != 0 {
		t.Fatalf("%d covered segments remain after drop", n)
	}
	// Appends continue, and replay sees only the surviving tail.
	if _, err := l.Append(1, 0, []byte("post-drop")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{MaxSegmentBytes: 256, SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextSeq(); got < nextBefore {
		t.Fatalf("NextSeq after compacted reopen = %d, regressed below %d (dropped seq could be re-minted)",
			got, nextBefore)
	}
	found := false
	if err := l2.Replay(func(r Record) error {
		if string(r.Payload) == "post-drop" {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("post-drop record lost")
	}
}

// TestApplyReplicatedIdempotent is the catch-up safety property: feeding
// ApplyReplicated records that were already applied — exact duplicates,
// records still in the view, and records that fell below a capped view's
// floor — must leave every view, every version, and the log itself
// untouched. opLogPull retries and redundant deliveries hinge on this.
func TestApplyReplicatedIdempotent(t *testing.T) {
	dir := t.TempDir()
	const cap = 4
	vs, err := OpenViewStore(dir, cap, Options{SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	// Local appends push user 1's view past its cap; replicated records
	// land for user 2.
	var all []Record
	for i := 0; i < cap+3; i++ {
		seq, err := vs.Append(1, int64(i), []byte(fmt.Sprintf("local-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Record{Seq: seq, User: 1, At: int64(i), Payload: []byte(fmt.Sprintf("local-%d", i))})
	}
	for _, r := range []Record{
		{Seq: 101, User: 2, At: 50, Payload: []byte("rep-a")},
		{Seq: 103, User: 2, At: 51, Payload: []byte("rep-b")},
	} {
		if _, err := vs.ApplyReplicated(r); err != nil {
			t.Fatal(err)
		}
		all = append(all, r)
	}

	snapState := func() (map[uint32]string, Pos, map[uint64]uint64) {
		views := make(map[uint32]string)
		for _, u := range []uint32{1, 2} {
			view, ver := vs.View(u)
			s := fmt.Sprintf("v%d:", ver)
			for _, r := range view {
				s += fmt.Sprintf("%d=%s;", r.Seq, r.Payload)
			}
			views[u] = s
		}
		return views, vs.Log().Pos(), vs.Cursors()
	}
	wantViews, wantPos, wantCursors := snapState()

	// Re-feed every record — including the local ones user 1's capped view
	// has already evicted — several times over.
	for round := 0; round < 3; round++ {
		for _, r := range all {
			if _, err := vs.ApplyReplicated(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	gotViews, gotPos, gotCursors := snapState()
	if fmt.Sprint(gotViews) != fmt.Sprint(wantViews) {
		t.Fatalf("views changed by duplicate deliveries:\n got %v\nwant %v", gotViews, wantViews)
	}
	if gotPos != wantPos {
		t.Fatalf("log grew from %+v to %+v on duplicate deliveries", wantPos, gotPos)
	}
	if fmt.Sprint(gotCursors) != fmt.Sprint(wantCursors) {
		t.Fatalf("cursors changed by duplicate deliveries: %v, want %v", gotCursors, wantCursors)
	}
}

// TestCursorsTrackOrigins verifies the per-origin cursors (exclusive
// applied high-water marks): local appends advance this log's origin,
// replicated records advance theirs, AdvanceCursor only ratchets forward,
// and RecordsAfter serves exactly the in-view records a cursor does not
// cover, in sequence order.
func TestCursorsTrackOrigins(t *testing.T) {
	vs, err := OpenViewStore(t.TempDir(), 8, Options{SeqStride: 3, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	for i := 0; i < 3; i++ { // local origin 0: seqs 0, 3, 6
		if _, err := vs.Append(1, int64(i), []byte("l")); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []Record{ // origin 1: 7, 10; origin 2: 5
		{Seq: 7, User: 2, Payload: []byte("o1-a")},
		{Seq: 10, User: 2, Payload: []byte("o1-b")},
		{Seq: 5, User: 3, Payload: []byte("o2")},
	} {
		if _, err := vs.ApplyReplicated(r); err != nil {
			t.Fatal(err)
		}
	}
	cur := vs.Cursors()
	if cur[0] != 7 || cur[1] != 11 || cur[2] != 6 {
		t.Fatalf("cursors = %v, want {0:7 1:11 2:6} (one past the highest applied)", cur)
	}
	vs.AdvanceCursor(2, 4) // behind: no-op
	if got := vs.Cursors()[2]; got != 6 {
		t.Errorf("AdvanceCursor regressed cursor to %d", got)
	}
	vs.AdvanceCursor(2, 12)
	if got := vs.Cursors()[2]; got != 12 {
		t.Errorf("AdvanceCursor did not advance: %d", got)
	}
	recs := vs.RecordsAfter(1, 8, 0, 0)
	if len(recs) != 1 || recs[0].Seq != 10 {
		t.Fatalf("RecordsAfter(1, 8) = %v, want the single seq-10 record", recs)
	}
	recs = vs.RecordsAfter(0, 0, 2, 0)
	if len(recs) != 2 || recs[0].Seq != 0 || recs[1].Seq != 3 {
		t.Fatalf("RecordsAfter(0, 0, max 2) = %v, want seqs [0 3]", recs)
	}
}

// TestCursorCoversSequenceZero pins why cursors are exclusive: the very
// first record of origin 0 has sequence number 0, and a peer that missed
// it must still see it in a pull from cursor 0. With inclusive cursors,
// "applied seq 0" and "applied nothing" would both read as 0 and the
// record could never be pulled.
func TestCursorCoversSequenceZero(t *testing.T) {
	vs, err := OpenViewStore(t.TempDir(), 8, Options{SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	if _, err := vs.Append(1, 0, []byte("the very first write")); err != nil {
		t.Fatal(err)
	}
	if got := vs.Cursors()[0]; got != 1 {
		t.Fatalf("cursor after seq 0 = %d, want exclusive mark 1", got)
	}
	recs := vs.RecordsAfter(0, 0, 0, 0)
	if len(recs) != 1 || recs[0].Seq != 0 {
		t.Fatalf("pull from empty cursor = %v, want the seq-0 record", recs)
	}
}

// TestOpenViewStoreFromSnapshotMismatch rejects snapshots from another
// sequence partition instead of silently mixing origin bookkeeping.
func TestOpenViewStoreFromSnapshotMismatch(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenViewStore(dir, 8, Options{SeqStride: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := vs.Snapshot()
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenViewStoreFrom(dir, 8, Options{SeqStride: 3}, snap); err == nil {
		t.Fatal("stride-mismatched snapshot accepted")
	}
}

// TestViewStoreEvictionReleasesRecords: a full view evicts its oldest
// record on every append, and an evicted record (its payload included)
// must not stay reachable from the view's backing array: after 10 ×
// viewCap appends to one user, every evicted payload is collected and no
// slot past the view's length holds a record.
func TestViewStoreEvictionReleasesRecords(t *testing.T) {
	const viewCap = 8
	vs, err := OpenViewStore(t.TempDir(), viewCap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	var collected atomic.Int64
	for i := range 10 * viewCap {
		// 64-byte payloads: large enough to be their own allocations,
		// which a finalizer can watch.
		if _, err := vs.Append(1, int64(i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		view := vs.views[1]
		runtime.SetFinalizer(&view[len(view)-1].Payload[0], func(*byte) { collected.Add(1) })
	}
	view := vs.views[1]
	if len(view) != viewCap || view[0].At != 9*viewCap {
		t.Fatalf("view holds %d records from event %d, want the newest %d", len(view), view[0].At, viewCap)
	}
	for i, r := range view[len(view):cap(view)] {
		if r.Payload != nil {
			t.Errorf("backing array slot %d past len still holds record %d", len(view)+i, r.Seq)
		}
	}
	const evicted = 9 * viewCap
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < evicted && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != evicted {
		t.Errorf("%d of %d evicted payloads collected; the rest are still reachable", n, evicted)
	}
	runtime.KeepAlive(view)
}
