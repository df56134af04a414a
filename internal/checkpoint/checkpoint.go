// Package checkpoint is the durability/recovery subsystem of the
// WAL-backed view store: it persists atomic, versioned snapshots of a
// wal.ViewStore (views, versions, per-origin cursors, and the log position
// they cover), restarts a store from the latest snapshot replaying only
// the log tail, and compacts away the WAL segments a snapshot fully
// covers. Snapshots are written with the classic write-temp + fsync +
// rename dance, so a crash at any point leaves either the previous
// snapshot or none — a torn file is detected by its checksum and discarded
// in favor of a full log replay.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// replayHist times store recovery (snapshot load + log-tail replay),
// exported as dynasore_checkpoint_replay_seconds.
var replayHist = telemetry.Default().Histogram(
	"dynasore_checkpoint_replay_seconds", "Latency of recovering a view store from checkpoint plus log replay.")

const (
	// fileName and tmpName are the snapshot's resting and staging names
	// inside the store's data directory.
	fileName = "checkpoint.ckpt"
	tmpName  = "checkpoint.tmp"
	// formatVersion is bumped on incompatible snapshot layout changes;
	// readers reject versions they do not know (full replay instead).
	formatVersion = 1
	// maxSaneCount bounds every decoded element count: a snapshot is read
	// whole into memory, so a count its byte length cannot back is corrupt.
	maxSaneCount = 1 << 28
	// headerLen is the fixed header: magic, version, nextSeq, stride,
	// offset, pos.seg and pos.off.
	headerLen = 4 + 4 + 8 + 8 + 8 + 4 + 8
)

// fileMagic opens every snapshot file.
var fileMagic = [4]byte{'D', 'S', 'C', 'P'}

// ErrCorrupt marks a snapshot file that exists but cannot be trusted —
// torn write, checksum mismatch, unknown version, or truncation. The
// recovery path treats it as absent and replays the full log.
var ErrCorrupt = errors.New("checkpoint: corrupt or torn snapshot")

// Write atomically persists snap into dir, replacing any previous
// snapshot: the encoding is staged to a temporary file, fsynced, renamed
// into place, and the directory entry is fsynced — after a crash either
// the old snapshot or the new one is fully present, never a mix.
func Write(dir string, snap *wal.Snapshot) error {
	buf := encode(snap)
	tmp := filepath.Join(dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: stage: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close() // the write error is primary; the staged file is discarded
		return fmt.Errorf("checkpoint: stage write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is primary; the staged file is discarded
		return fmt.Errorf("checkpoint: stage sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: stage close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, fileName)); err != nil {
		return fmt.Errorf("checkpoint: install: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Make the rename itself durable; failure here only delays
		// durability to the next OS flush, so it is not fatal.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Load reads the snapshot in dir. It returns (nil, nil) when no snapshot
// exists and (nil, ErrCorrupt) when one exists but is torn or otherwise
// untrustworthy.
func Load(dir string) (*wal.Snapshot, error) {
	buf, err := os.ReadFile(filepath.Join(dir, fileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return decode(buf)
}

// encode serializes a snapshot:
//
//	magic | u32 version | u64 nextSeq | u64 stride | u64 offset |
//	u32 pos.seg | u64 pos.off |
//	u32 nCursors | nCursors × { u64 origin, u64 seq } |
//	u32 nUsers   | nUsers   × { u32 user, u64 version, u32 nEvents,
//	                            nEvents × { u64 seq, u64 at, u32 len, payload } } |
//	u32 crc32 of everything above
//
// Map iteration is sorted so identical states encode identically.
func encode(snap *wal.Snapshot) []byte {
	origins := make([]uint64, 0, len(snap.Cursors))
	for o := range snap.Cursors {
		origins = append(origins, o)
	}
	slices.Sort(origins)
	users := make([]uint32, 0, len(snap.Views))
	size := headerLen + 4 + 16*len(origins) + 4 + 4
	for u, view := range snap.Views {
		users = append(users, u)
		size += 4 + 8 + 4
		for _, r := range view {
			size += 8 + 8 + 4 + len(r.Payload)
		}
	}
	slices.Sort(users)

	// Sized once: a snapshot holds every view's payloads, and growing the
	// buffer by doubling would allocate about twice the file.
	buf := append(make([]byte, 0, size), fileMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, snap.NextSeq)
	buf = binary.LittleEndian.AppendUint64(buf, snap.Stride)
	buf = binary.LittleEndian.AppendUint64(buf, snap.Offset)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(snap.Pos.Seg))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(snap.Pos.Off))

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(origins)))
	for _, o := range origins {
		buf = binary.LittleEndian.AppendUint64(buf, o)
		buf = binary.LittleEndian.AppendUint64(buf, snap.Cursors[o])
	}

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(users)))
	for _, u := range users {
		view := snap.Views[u]
		buf = binary.LittleEndian.AppendUint32(buf, u)
		buf = binary.LittleEndian.AppendUint64(buf, snap.Versions[u])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(view)))
		for _, r := range view {
			buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.At))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
			buf = append(buf, r.Payload...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decode parses an encoded snapshot, verifying magic, version, and the
// trailing whole-file checksum before trusting any of it.
func decode(buf []byte) (*wal.Snapshot, error) {
	if len(buf) < headerLen+8 || [4]byte(buf[0:4]) != fileMagic {
		return nil, ErrCorrupt
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != formatVersion {
		return nil, ErrCorrupt
	}
	snap := &wal.Snapshot{
		NextSeq: binary.LittleEndian.Uint64(buf[8:16]),
		Stride:  binary.LittleEndian.Uint64(buf[16:24]),
		Offset:  binary.LittleEndian.Uint64(buf[24:32]),
		Pos: wal.Pos{
			Seg: int(binary.LittleEndian.Uint32(buf[32:36])),
			Off: int64(binary.LittleEndian.Uint64(buf[36:44])),
		},
	}
	b := body[headerLen:]

	nCursors, b, err := readCount(b, 16)
	if err != nil {
		return nil, err
	}
	snap.Cursors = make(map[uint64]uint64, nCursors)
	for i := 0; i < nCursors; i++ {
		snap.Cursors[binary.LittleEndian.Uint64(b[0:8])] = binary.LittleEndian.Uint64(b[8:16])
		b = b[16:]
	}

	nUsers, b, err := readCount(b, 16)
	if err != nil {
		return nil, err
	}
	snap.Views = make(map[uint32][]wal.Record, nUsers)
	snap.Versions = make(map[uint32]uint64, nUsers)
	for i := 0; i < nUsers; i++ {
		if len(b) < 16 {
			return nil, ErrCorrupt
		}
		user := binary.LittleEndian.Uint32(b[0:4])
		snap.Versions[user] = binary.LittleEndian.Uint64(b[4:12])
		nEvents := int(binary.LittleEndian.Uint32(b[12:16]))
		b = b[16:]
		if nEvents > maxSaneCount || nEvents*20 > len(b) {
			return nil, ErrCorrupt
		}
		view := make([]wal.Record, 0, nEvents)
		for j := 0; j < nEvents; j++ {
			if len(b) < 20 {
				return nil, ErrCorrupt
			}
			r := wal.Record{
				Seq:  binary.LittleEndian.Uint64(b[0:8]),
				At:   int64(binary.LittleEndian.Uint64(b[8:16])),
				User: user,
			}
			plen := int(binary.LittleEndian.Uint32(b[16:20]))
			b = b[20:]
			if plen > len(b) {
				return nil, ErrCorrupt
			}
			r.Payload = append([]byte{}, b[:plen]...)
			b = b[plen:]
			view = append(view, r)
		}
		snap.Views[user] = view
	}
	return snap, nil
}

// readCount pops a u32 element count and validates it against the bytes
// that must back it (minSize per element), so a corrupt count can never
// drive allocation.
func readCount(b []byte, minSize int) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	b = b[4:]
	if n > maxSaneCount || n*minSize > len(b) {
		return 0, nil, ErrCorrupt
	}
	return n, b, nil
}

// RecoveryInfo describes how a store was brought back: whether a snapshot
// seeded it, how many log records were replayed on top, and — when a
// snapshot existed but had to be discarded — why.
type RecoveryInfo struct {
	// FromCheckpoint is true when a valid snapshot seeded the store.
	FromCheckpoint bool
	// Replayed is the number of log records applied after the seed (the
	// whole log when FromCheckpoint is false).
	Replayed int
	// CheckpointErr records a snapshot that was found and discarded
	// (corrupt, or from an incompatible sequence partition); nil when the
	// snapshot loaded cleanly or none existed.
	CheckpointErr error
}

// OpenViewStore opens (or recovers) the view store in dir: the latest
// snapshot — if present, intact, and from the same sequence partition —
// seeds the state and only the log tail after its position is replayed;
// otherwise the whole log is. A discarded snapshot is reported in
// RecoveryInfo, never fatal: full replay is always the fallback.
func OpenViewStore(dir string, viewCap int, opts wal.Options) (*wal.ViewStore, RecoveryInfo, error) {
	start := time.Now()
	defer func() { replayHist.Observe(time.Since(start)) }()
	var info RecoveryInfo
	snap, err := Load(dir)
	if err != nil {
		info.CheckpointErr = err
		snap = nil
	}
	if snap != nil {
		vs, replayed, err := wal.OpenViewStoreFrom(dir, viewCap, opts, snap)
		if err == nil {
			info.FromCheckpoint = true
			info.Replayed = replayed
			return vs, info, nil
		}
		if !errors.Is(err, wal.ErrSnapshotMismatch) {
			return nil, info, err
		}
		info.CheckpointErr = err
	}
	vs, replayed, err := wal.OpenViewStoreFrom(dir, viewCap, opts, nil)
	if err != nil {
		return nil, info, err
	}
	info.Replayed = replayed
	return vs, info, nil
}
