package wal

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// ViewStore is the persistent producer-pivoted view store: it keeps the
// latest events per user in memory, backed by the write-ahead log for
// durability. DynaSoRe's write path appends here first; cache servers then
// fetch the fresh view (§3.3 "Durability").
//
// Beyond the views it tracks one applied high-water cursor per origin
// broker (the sequence space is partitioned by Options.SeqStride/SeqOffset,
// so a record's origin is Seq mod stride). A cursor is exclusive — one
// past the highest applied sequence number, so zero unambiguously means
// "nothing applied" even for origin 0, whose first sequence number is 0.
// The cursors drive the catch-up protocol of a multi-broker cluster — a
// recovering broker compares cursors with its peers and pulls exactly the
// records it missed — and are persisted in checkpoints so they survive
// restarts and compaction.
type ViewStore struct {
	//dynalint:allow lockio the store lock orders WAL appends with view-map updates; write I/O under it is the durability contract
	mu      sync.RWMutex
	log     *Log
	viewCap int
	stride  uint64
	views   map[uint32][]Record
	version map[uint32]uint64 // latest seq per user
	cursors map[uint64]uint64 // per-origin exclusive applied high-water marks
}

// Snapshot is a point-in-time copy of everything a ViewStore needs to come
// back after a restart without replaying its whole log: the views and
// versions, the per-origin cursors, the sequence counter, and the log
// position (Pos) the snapshot covers — replay resumes there. The
// checkpoint subsystem (internal/checkpoint) serializes Snapshots to disk.
type Snapshot struct {
	// NextSeq is the log's sequence counter at snapshot time.
	NextSeq uint64
	// Stride and Offset record the sequence-space partition the store was
	// opened with; a snapshot from a different partition is not loadable.
	Stride uint64
	Offset uint64
	// Pos is the log append position the snapshot covers: every record
	// before it is reflected in Views (or was evicted from a capped view,
	// which replay would also evict).
	Pos Pos
	// Cursors are the per-origin exclusive applied high-water marks.
	Cursors map[uint64]uint64
	// Views and Versions are the per-user state.
	Views    map[uint32][]Record
	Versions map[uint32]uint64
}

// ErrSnapshotMismatch is returned by OpenViewStoreFrom when a snapshot was
// taken under a different sequence-space partition than the one the store
// is being opened with (e.g. the cluster changed size); the snapshot's
// origin bookkeeping would be meaningless, so the caller must fall back to
// a full replay.
var ErrSnapshotMismatch = fmt.Errorf("wal: snapshot sequence partition mismatch")

// OpenViewStore opens the store in dir, keeping up to viewCap events per
// user view, and rebuilds all views from the log.
func OpenViewStore(dir string, viewCap int, opts Options) (*ViewStore, error) {
	vs, _, err := OpenViewStoreFrom(dir, viewCap, opts, nil)
	return vs, err
}

// OpenViewStoreFrom opens the store in dir, seeded from snap: views,
// versions, and cursors start from the snapshot and only the log records
// appended after snap.Pos are replayed — the fast-restart path. It returns
// the number of records replayed. A nil snap replays the whole log
// (OpenViewStore's behavior). A snapshot taken under a different
// SeqStride/SeqOffset partition returns ErrSnapshotMismatch.
func OpenViewStoreFrom(dir string, viewCap int, opts Options, snap *Snapshot) (*ViewStore, int, error) {
	if viewCap <= 0 {
		viewCap = 64
	}
	vs := &ViewStore{
		viewCap: viewCap,
		stride:  opts.stride(),
		views:   make(map[uint32][]Record),
		version: make(map[uint32]uint64),
		cursors: make(map[uint64]uint64),
	}
	from := Pos{}
	var minNext uint64
	if snap != nil {
		if snap.Stride != opts.stride() || snap.Offset != opts.SeqOffset {
			return nil, 0, fmt.Errorf("%w: snapshot %d/%d, log %d/%d",
				ErrSnapshotMismatch, snap.Stride, snap.Offset, opts.stride(), opts.SeqOffset)
		}
		for u, view := range snap.Views {
			vs.views[u] = slices.Clone(view)
		}
		maps.Copy(vs.version, snap.Versions)
		maps.Copy(vs.cursors, snap.Cursors)
		from = snap.Pos
		minNext = snap.NextSeq
	}
	log, replayed, err := openScan(dir, opts, from, minNext, func(r Record) { vs.apply(r) })
	if err != nil {
		return nil, 0, fmt.Errorf("rebuild views: %w", err)
	}
	vs.log = log
	return vs, replayed, nil
}

// apply folds a record into the in-memory view, kept sorted by sequence
// number and capped, and advances the record's origin cursor. Local
// appends always arrive in order (fast path); records replicated from peer
// brokers may arrive out of order and are inserted at their sequence
// position, so every broker's view of a user converges on the same event
// list no matter the delivery order. The version only moves forward.
func (vs *ViewStore) apply(r Record) {
	view := vs.views[r.User]
	if n := len(view); n == 0 || view[n-1].Seq < r.Seq {
		view = append(view, r)
	} else {
		i := sort.Search(len(view), func(i int) bool { return view[i].Seq >= r.Seq })
		if view[i].Seq == r.Seq {
			return // duplicate delivery
		}
		view = append(view, Record{})
		copy(view[i+1:], view[i:])
		view[i] = r
	}
	if over := len(view) - vs.viewCap; over > 0 {
		// Shift in place and clear the tail: re-slicing past the evicted
		// records would keep them, payloads included, in the backing
		// array until its next reallocation.
		n := copy(view, view[over:])
		clear(view[n:])
		view = view[:n]
	}
	vs.views[r.User] = view
	if r.Seq > vs.version[r.User] {
		vs.version[r.User] = r.Seq
	}
	if o := r.Seq % vs.stride; r.Seq+1 > vs.cursors[o] {
		vs.cursors[o] = r.Seq + 1
	}
}

// Append durably writes an event and updates the user's view. It returns
// the event's sequence number, which doubles as the view's new version.
func (vs *ViewStore) Append(user uint32, at int64, payload []byte) (uint64, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	seq, err := vs.log.Append(user, at, payload)
	if err != nil {
		return 0, err
	}
	p := make([]byte, len(payload))
	copy(p, payload)
	vs.apply(Record{Seq: seq, User: user, At: at, Payload: p})
	return seq, nil
}

// ApplyReplicated folds in an event that another broker of the cluster
// already sequenced and persisted, keeping the originator's sequence
// number so every broker's store converges on the same per-user history.
// Delivery order does not matter: an event older than the user's current
// version fills its gap in the view, a duplicate is ignored, and an event
// older than everything a full capped view retains is dropped (it would be
// evicted immediately anyway). It is idempotent — re-fed duplicates leave
// the views, versions, and the log untouched — which is what lets the
// catch-up protocol (opLogPull) replay ranges without bookkeeping. The
// returned bool reports whether the record was new and applied (false for
// duplicates and below-floor drops), so callers pulling from several peers
// concurrently can count each missed record once. The record's payload is
// retained; callers must not reuse it.
func (vs *ViewStore) ApplyReplicated(r Record) (bool, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	view := vs.views[r.User]
	for i := len(view) - 1; i >= 0; i-- {
		if view[i].Seq == r.Seq {
			return false, nil // duplicate delivery (e.g. a retried frame)
		}
	}
	if len(view) >= vs.viewCap && len(view) > 0 && r.Seq < view[0].Seq {
		return false, nil
	}
	if err := vs.log.AppendRecord(r); err != nil {
		return false, err
	}
	vs.apply(r)
	return true, nil
}

// View returns a copy of the user's current view (oldest first) and its
// version. Missing users return an empty view at version 0.
func (vs *ViewStore) View(user uint32) ([]Record, uint64) {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	src := vs.views[user]
	out := make([]Record, len(src))
	copy(out, src)
	return out, vs.version[user]
}

// Version returns the latest sequence number applied to the user's view.
func (vs *ViewStore) Version(user uint32) uint64 {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.version[user]
}

// Snapshot captures the store's recoverable state at one consistent
// moment: the returned snapshot covers exactly the records appended before
// its Pos. Record payloads are shared with the live store and must be
// treated as immutable.
func (vs *ViewStore) Snapshot() *Snapshot {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	snap := &Snapshot{
		// Appends hold the write lock, so the log's position and counter
		// are consistent with the views copied below.
		NextSeq:  vs.log.NextSeq(),
		Stride:   vs.stride,
		Offset:   vs.log.opts.SeqOffset,
		Pos:      vs.log.Pos(),
		Cursors:  maps.Clone(vs.cursors),
		Views:    make(map[uint32][]Record, len(vs.views)),
		Versions: maps.Clone(vs.version),
	}
	for u, view := range vs.views {
		snap.Views[u] = slices.Clone(view)
	}
	return snap
}

// Cursors returns a copy of the per-origin applied high-water marks: for
// each origin (sequence mod stride) with at least one applied record, one
// past the highest applied sequence number.
func (vs *ViewStore) Cursors() map[uint64]uint64 {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return maps.Clone(vs.cursors)
}

// AdvanceCursor raises origin's cursor to the exclusive mark `next` if it
// is behind. The catch-up protocol calls it after processing a pulled
// page, so records the page delivered but the store declined (below a
// capped view's floor), and gaps a peer can no longer serve at all, are
// still acknowledged and never re-pulled.
func (vs *ViewStore) AdvanceCursor(origin, next uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if next > vs.cursors[origin] {
		vs.cursors[origin] = next
	}
}

// RecordsAfter returns up to maxRecords records minted by origin with
// sequence numbers at or above the exclusive cursor `from`, in sequence
// order, totalling at most maxBytes of payload (always at least one
// record if any match) — one page of the catch-up protocol's answer to a
// peer's opLogPull. Only records still retained by a view are served;
// anything older fell off the capped views everywhere and is not worth
// shipping. Payloads are shared with the live store and must be treated
// as immutable.
func (vs *ViewStore) RecordsAfter(origin, from uint64, maxRecords, maxBytes int) []Record {
	vs.mu.RLock()
	var out []Record
	for _, view := range vs.views {
		// Views are sorted by sequence number: jump to the first record
		// the cursor does not cover instead of filtering the whole view —
		// near the high-water mark (the common catch-up tail) this skips
		// almost everything.
		i := sort.Search(len(view), func(i int) bool { return view[i].Seq >= from })
		for _, r := range view[i:] {
			if r.Seq%vs.stride == origin {
				out = append(out, r)
			}
		}
	}
	vs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if maxRecords > 0 && len(out) > maxRecords {
		out = out[:maxRecords]
	}
	if maxBytes > 0 {
		total := 0
		for i, r := range out {
			total += len(r.Payload)
			if i > 0 && total > maxBytes {
				out = out[:i]
				break
			}
		}
	}
	return out
}

// Log exposes the underlying write-ahead log, so the checkpoint subsystem
// can compact segments a snapshot covers (DropBefore) without the store
// re-exporting every log operation.
func (vs *ViewStore) Log() *Log { return vs.log }

// Close closes the underlying log.
func (vs *ViewStore) Close() error { return vs.log.Close() }
