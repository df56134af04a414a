package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynasore/internal/wal"
)

// fillStore appends n records across `users` users and returns the store's
// per-user views and versions for later comparison.
func fillStore(t *testing.T, vs *wal.ViewStore, users int, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := uint32(i % users)
		if _, err := vs.Append(u, int64(i), []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// storeState captures every user's view and version for equality checks.
func storeState(vs *wal.ViewStore, users int) map[uint32]string {
	out := make(map[uint32]string, users)
	for u := 0; u < users; u++ {
		view, ver := vs.View(uint32(u))
		var b strings.Builder
		fmt.Fprintf(&b, "v%d:", ver)
		for _, r := range view {
			fmt.Fprintf(&b, "%d=%s;", r.Seq, r.Payload)
		}
		out[uint32(u)] = b.String()
	}
	return out
}

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			n++
		}
	}
	return n
}

// TestRestartFromCheckpointReplaysOnlyTail is the acceptance scenario: a
// store with a 10k-record WAL checkpoints, gains a small tail, restarts —
// and only the tail is replayed, with views and versions identical to the
// pre-restart state. A follow-up checkpoint with compaction enabled then
// removes every pre-checkpoint segment.
func TestRestartFromCheckpointReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	const users, bulk, tail = 37, 10000, 250
	opts := wal.Options{MaxSegmentBytes: 16 << 10} // many small segments
	vs, info, err := OpenViewStore(dir, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.FromCheckpoint || info.Replayed != 0 {
		t.Fatalf("fresh open: info = %+v, want empty full replay", info)
	}
	fillStore(t, vs, users, bulk, "bulk")
	mgr := NewManager(vs, Options{Dir: dir})
	if _, err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, vs, users, tail, "tail")
	want := storeState(vs, users)
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	vs2, info, err := OpenViewStore(dir, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if !info.FromCheckpoint {
		t.Fatalf("restart ignored the checkpoint: %+v", info)
	}
	if info.Replayed != tail {
		t.Fatalf("replayed %d records, want only the %d-record tail", info.Replayed, tail)
	}
	if got := storeState(vs2, users); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("restarted store diverges from pre-restart views/versions")
	}

	// Compaction: a fresh checkpoint covers everything; every segment
	// before its position must go.
	before := segmentCount(t, dir)
	if before < 3 {
		t.Fatalf("test needs several segments, have %d", before)
	}
	mgr2 := NewManager(vs2, Options{Dir: dir, CompactAfter: 1})
	pos, err := mgr2.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if got := segmentCount(t, dir); got != before-pos.Seg {
		t.Fatalf("after compaction %d segments remain, want %d (all %d pre-checkpoint segments dropped)",
			got, before-pos.Seg, pos.Seg)
	}
	if mgr2.CompactedSegments() != int64(pos.Seg) {
		t.Fatalf("CompactedSegments = %d, want %d", mgr2.CompactedSegments(), pos.Seg)
	}
	if err := vs2.Close(); err != nil {
		t.Fatal(err)
	}

	// The compacted store restarts to the same state, replaying nothing.
	vs3, info, err := OpenViewStore(dir, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer vs3.Close()
	if !info.FromCheckpoint || info.Replayed != 0 {
		t.Fatalf("post-compaction restart: %+v, want checkpoint-only recovery", info)
	}
	if got := storeState(vs3, users); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("post-compaction store diverges from pre-restart views/versions")
	}
	// The sequence counter survived compaction: new appends never re-mint
	// a dropped sequence number.
	seq, err := vs3.Append(1, 1, []byte("post-compaction"))
	if err != nil {
		t.Fatal(err)
	}
	if seq < uint64(bulk+tail) {
		t.Fatalf("post-compaction append minted seq %d, below the %d already used", seq, bulk+tail)
	}
}

// TestCrashBetweenStageAndRename simulates a crash after the temporary
// snapshot was written but before the rename installed it: recovery must
// fall back to a full log replay, and the next checkpoint must succeed.
func TestCrashBetweenStageAndRename(t *testing.T) {
	dir := t.TempDir()
	const users, n = 5, 120
	vs, _, err := OpenViewStore(dir, 64, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, vs, users, n, "pre")
	want := storeState(vs, users)

	// The "crash": a fully written staging file that was never renamed.
	if err := os.WriteFile(filepath.Join(dir, tmpName), encode(vs.Snapshot()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	vs2, info, err := OpenViewStore(dir, 64, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if info.FromCheckpoint {
		t.Fatal("recovery trusted an uninstalled staging file")
	}
	if info.CheckpointErr != nil {
		t.Fatalf("an absent checkpoint is not an error: %v", info.CheckpointErr)
	}
	if info.Replayed != n {
		t.Fatalf("replayed %d records, want the full %d-record log", info.Replayed, n)
	}
	if got := storeState(vs2, users); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("full replay diverges from pre-crash state")
	}

	// The next checkpoint overwrites the stale staging file and works.
	if _, err := NewManager(vs2, Options{Dir: dir}).CheckpointNow(); err != nil {
		t.Fatalf("checkpoint after crash: %v", err)
	}
	if err := vs2.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, err = OpenViewStore(dir, 64, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.FromCheckpoint || info.Replayed != 0 {
		t.Fatalf("post-recovery checkpoint unusable: %+v", info)
	}
}

// TestTornSnapshotDiscarded corrupts the installed snapshot (truncation
// and bit damage) and verifies recovery detects it, reports it, and falls
// back to replaying the whole log.
func TestTornSnapshotDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name string
		harm func(path string) error
	}{
		{"truncated", func(path string) error {
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, st.Size()/2)
		}},
		{"bitflip", func(path string) error {
			buf, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			buf[len(buf)/2] ^= 0xFF
			return os.WriteFile(path, buf, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const users, n = 4, 60
			vs, _, err := OpenViewStore(dir, 64, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fillStore(t, vs, users, n, "x")
			want := storeState(vs, users)
			if _, err := NewManager(vs, Options{Dir: dir}).CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := vs.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.harm(filepath.Join(dir, fileName)); err != nil {
				t.Fatal(err)
			}
			vs2, info, err := OpenViewStore(dir, 64, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer vs2.Close()
			if info.FromCheckpoint {
				t.Fatal("recovery trusted a damaged snapshot")
			}
			if info.CheckpointErr == nil {
				t.Fatal("damaged snapshot not reported")
			}
			if info.Replayed != n {
				t.Fatalf("replayed %d, want full log of %d", info.Replayed, n)
			}
			if got := storeState(vs2, users); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatal("full replay diverges after snapshot damage")
			}
		})
	}
}

// TestSnapshotPartitionMismatchFallsBack opens a store whose snapshot was
// taken under a different sequence partition (cluster resize): the
// snapshot must be discarded, full replay must win.
func TestSnapshotPartitionMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	vs, _, err := OpenViewStore(dir, 64, wal.Options{SeqStride: 2, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, vs, 3, 30, "s2")
	if _, err := NewManager(vs, Options{Dir: dir}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	vs2, info, err := OpenViewStore(dir, 64, wal.Options{SeqStride: 3, SeqOffset: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if info.FromCheckpoint {
		t.Fatal("recovery used a snapshot from another sequence partition")
	}
	if info.CheckpointErr == nil {
		t.Fatal("partition mismatch not reported")
	}
	if info.Replayed != 30 {
		t.Fatalf("replayed %d, want full log of 30", info.Replayed)
	}
}

// TestCheckpointPersistsCursors verifies the per-origin catch-up cursors
// survive a checkpointed restart even after the log is compacted away.
func TestCheckpointPersistsCursors(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{SeqStride: 3, SeqOffset: 0, MaxSegmentBytes: 1 << 10}
	vs, _, err := OpenViewStore(dir, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := vs.Append(uint32(i%4), int64(i), []byte("local")); err != nil {
			t.Fatal(err)
		}
	}
	// Replicated records from origins 1 and 2.
	for _, r := range []wal.Record{
		{Seq: 1000, User: 9, At: 1, Payload: []byte("o1")},
		{Seq: 2000, User: 9, At: 2, Payload: []byte("o2")},
	} {
		if _, err := vs.ApplyReplicated(r); err != nil {
			t.Fatal(err)
		}
	}
	want := vs.Cursors()
	if _, err := NewManager(vs, Options{Dir: dir, CompactAfter: 1}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	vs2, info, err := OpenViewStore(dir, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if !info.FromCheckpoint {
		t.Fatalf("recovery skipped the checkpoint: %+v", info)
	}
	got := vs2.Cursors()
	if len(got) != len(want) {
		t.Fatalf("cursors = %v, want %v", got, want)
	}
	for o, seq := range want {
		if got[o] != seq {
			t.Fatalf("cursor[%d] = %d, want %d", o, got[o], seq)
		}
	}
}

// TestManagerRunPeriodic verifies the background loop takes checkpoints on
// its own and stops cleanly.
func TestManagerRunPeriodic(t *testing.T) {
	dir := t.TempDir()
	vs, _, err := OpenViewStore(dir, 64, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	fillStore(t, vs, 3, 12, "p")
	mgr := NewManager(vs, Options{Dir: dir, Every: 10 * time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		mgr.Run(stop)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && mgr.Checkpoints() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	if mgr.Checkpoints() == 0 {
		t.Fatal("periodic loop never checkpointed")
	}
	if mgr.LastErr() != nil {
		t.Fatalf("periodic checkpoint error: %v", mgr.LastErr())
	}
}

// TestEncodeDecodeRoundTrip pushes a snapshot through the file format.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := &wal.Snapshot{
		NextSeq: 77, Stride: 3, Offset: 1,
		Pos:     wal.Pos{Seg: 4, Off: 12345},
		Cursors: map[uint64]uint64{0: 66, 2: 71},
		Views: map[uint32][]wal.Record{
			1: {{Seq: 3, User: 1, At: 9, Payload: []byte("a")}, {Seq: 6, User: 1, At: 10, Payload: nil}},
			9: {{Seq: 7, User: 9, At: 11, Payload: []byte("long payload here")}},
		},
		Versions: map[uint32]uint64{1: 6, 9: 7},
	}
	got, err := decode(encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.NextSeq != snap.NextSeq || got.Stride != snap.Stride || got.Offset != snap.Offset || got.Pos != snap.Pos {
		t.Fatalf("header round trip: %+v", got)
	}
	if fmt.Sprint(got.Cursors) != fmt.Sprint(snap.Cursors) {
		t.Fatalf("cursors round trip: %v", got.Cursors)
	}
	for u, view := range snap.Views {
		gv := got.Views[u]
		if len(gv) != len(view) {
			t.Fatalf("user %d: %d events, want %d", u, len(gv), len(view))
		}
		for i := range view {
			if gv[i].Seq != view[i].Seq || gv[i].At != view[i].At || gv[i].User != u ||
				string(gv[i].Payload) != string(view[i].Payload) {
				t.Fatalf("user %d event %d: %+v, want %+v", u, i, gv[i], view[i])
			}
		}
		if got.Versions[u] != snap.Versions[u] {
			t.Fatalf("user %d version %d, want %d", u, got.Versions[u], snap.Versions[u])
		}
	}
}

// encodeFixture is a snapshot of several users with payloads of varied
// lengths, the empty one included.
func encodeFixture() *wal.Snapshot {
	snap := &wal.Snapshot{
		NextSeq: 901, Stride: 3, Offset: 2,
		Pos:      wal.Pos{Seg: 7, Off: 4096},
		Cursors:  map[uint64]uint64{2: 900, 0: 898, 1: 899},
		Views:    map[uint32][]wal.Record{},
		Versions: map[uint32]uint64{},
	}
	for u := uint32(0); u < 40; u++ {
		user := u * 7919 % 1000
		for i := range int(u % 5) {
			seq := uint64(10*u) + uint64(i)
			snap.Views[user] = append(snap.Views[user], wal.Record{
				Seq: seq, User: user, At: int64(seq) * 3, Payload: []byte(strings.Repeat("p", int(u)*i)),
			})
			snap.Versions[user] = seq
		}
	}
	return snap
}

// TestEncodeIsByteStable pins the snapshot file's bytes: the digest was
// taken from the encoder before it sized its buffer up front, and a
// snapshot written by either must read back under the other.
func TestEncodeIsByteStable(t *testing.T) {
	sum := sha256.Sum256(encode(encodeFixture()))
	if got, want := hex.EncodeToString(sum[:]), "06e473afee7a1104bfb41b7c48c60914c1dc1ed472032d59854cdaad4947f08d"; got != want {
		t.Errorf("encoded snapshot digest = %s, want %s", got, want)
	}
}

// TestEncodeAllocs: encode sizes its buffer once, so it allocates the
// two sorted key slices and the buffer, however many views the snapshot
// holds.
func TestEncodeAllocs(t *testing.T) {
	snap := encodeFixture()
	if b := encode(snap); cap(b) != len(b) {
		t.Errorf("encode: cap %d, want exactly the %d bytes written", cap(b), len(b))
	}
	if allocs := testing.AllocsPerRun(20, func() { encode(snap) }); allocs > 3 {
		t.Errorf("encode: %.0f allocs, want at most 3", allocs)
	}
}
