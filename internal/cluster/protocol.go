// Package cluster is a runnable multi-node implementation of the DynaSoRe
// API (§3.1) on real TCP sockets: cache servers hold views in memory,
// brokers execute Read(u, L)/Write(u) against them, a WAL-backed persistent
// store guarantees durability (§3.3), and a broker-side controller
// replicates hot views next to their readers in the spirit of §3.2. It is
// the drop-in-for-memcache prototype the paper describes, sized to run on a
// single machine with one process per node.
//
// Every link — client → broker, broker → cache server, broker ↔ broker and
// direct reader → cache server — speaks one wire protocol. A frame is
// uint32(length) | uint8(type) | uint64(requestID) | [trace] | body, where
// the optional 17-byte trace context is present exactly when the type
// byte's traceFlag bit is set (only sampled requests set it). A connection
// opens with an opHello frame carrying a magic and the protocol version;
// after it, requests carry IDs, so many of them multiplex concurrently
// over one connection. New code should use the public pkg/dynasore
// package, whose network client wraps this package's Client.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// Message types of the wire protocol. Values are part of the wire format:
// append, never reorder, and stay below traceFlag.
const (
	// Broker <-> cache server.
	opGetView uint8 = iota + 1
	opPutView
	opDeleteView
	opServerStats
	// Client <-> broker.
	opRead
	opWrite
	opBrokerStats
	// Responses.
	respView
	respMiss
	respOK
	respRead
	respWrite
	respStats
	respError
	// Connection handshake: the first frame on every connection.
	opHello
	respHello
	// Broker <-> broker placement sync (multi-broker clusters): liveness
	// pings doubling as election beacons, replica-set deltas pushed after
	// every placement change, full-table anti-entropy pulls, access-
	// statistics reports from follower brokers to the policy leader, and
	// write replication between per-broker WALs.
	opPeerHello
	opPlacementDelta
	opPlacementPull
	opAccessReport
	opSyncWrite
	respPlacement
	// WAL catch-up between per-broker logs (the durability/recovery
	// subsystem): a broker asks a peer for its per-origin applied
	// high-water marks, then pulls exactly the records it missed per
	// origin — so a peer that was down during replication converges
	// without waiting for new user writes.
	opLogCursors
	opLogPull
	respLogCursors
	respLogRecords
	// Elastic membership (internal/membership): admin requests to read or
	// mutate the epoch-versioned cache-server registry (mutations are
	// forwarded to the leader broker), plus the peer-sync pair — delta
	// broadcasts after every transition and anti-entropy pulls of the
	// leader's current view.
	opMembershipGet
	opServerAdd
	opServerDrain
	opServerRemove
	opMembershipDelta
	opMembershipPull
	respMembership
	// opPlacementBatch carries many placement entries in one frame (the
	// encodePlacementTable layout) — how a rebalance or drain pass pushes
	// its whole outcome to each peer in O(1) round trips instead of one
	// opPlacementDelta per moved user.
	opPlacementBatch
	// Direct-read fast path: a client asks the broker to lease one user's
	// replica set (opLeaseGet → respLease), then reads the view straight
	// from a cache server (opDirectGet → respView). Two fencing tokens ride
	// every direct read — the membership epoch and the user's placement
	// version — and a server that cannot prove both current answers
	// respStaleRoute (fall back to the broker and re-lease) or respNotHere
	// (the replica moved away); it never silently serves a stale route.
	// opEpochPush is the broker→server epoch notification that arms the
	// fence on servers that receive no puts.
	opLeaseGet
	opDirectGet
	opEpochPush
	respLease
	respStaleRoute
	respNotHere

	// opViewPull asks a peer broker for its persistent store's view of one
	// user (4-byte little-endian user id → respView). Every acknowledged
	// write reaches its origin broker's store before the ack, so the max
	// over live peers' answers is a floor no cache fill may go below.
	opViewPull
)

// protoVersion is the one protocol version a hello may name; any other
// is refused with ErrBadVersion.
const protoVersion = 4

// traceFlag in a frame's type byte means a 17-byte trace context (see
// internal/telemetry) follows the request ID. Op codes stay below it.
const traceFlag = 0x80

const (
	maxFrame    = 16 << 20 // 16 MiB
	maxEventLen = 1 << 20
	// maxInflight caps concurrently executing requests per connection.
	maxInflight = 64
	// frameHeaderLen is uint32(length) | uint8(type) | uint64(requestID);
	// the length counts everything after its own four bytes.
	frameHeaderLen = 13
)

// helloMagic opens every opHello body, so a connection from something
// that is not a DynaSoRe peer is refused at once.
var helloMagic = [4]byte{'D', 'S', 'R', 'E'}

// Errors returned by protocol helpers and clients.
var (
	ErrFrameTooLarge  = errors.New("cluster: frame exceeds limit")
	ErrBadFrame       = errors.New("cluster: malformed frame")
	ErrRemote         = errors.New("cluster: remote error")
	ErrTooManyTargets = errors.New("cluster: too many read targets")
	ErrBadVersion     = errors.New("cluster: unsupported protocol version")
)

// frame is one message on the wire. tc is the zero context unless the
// request is sampled.
type frame struct {
	msgType uint8
	id      uint64
	tc      telemetry.TraceContext
	body    []byte
}

// writeFrame sends one frame. A sampled trace context sets traceFlag and
// rides behind the request ID; an unsampled one costs no bytes. Header and
// body go out in one write (writev on a TCP connection).
func writeFrame(w io.Writer, f frame) error {
	if f.msgType&traceFlag != 0 {
		return ErrBadFrame
	}
	var hdr [frameHeaderLen + telemetry.TraceContextLen]byte
	n, msgType := frameHeaderLen, f.msgType
	if f.tc.Sampled() {
		telemetry.AppendTraceContext(hdr[frameHeaderLen:frameHeaderLen], f.tc)
		n, msgType = len(hdr), msgType|traceFlag
	}
	size := n - 4 + len(f.body)
	if size > maxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(size))
	hdr[4] = msgType
	binary.LittleEndian.PutUint64(hdr[5:13], f.id)
	bufs := net.Buffers{hdr[:n], f.body}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame receives one frame. A length outside [9, maxFrame] is
// ErrFrameTooLarge; a traceFlag frame too short for its context, or whose
// context is not sampled, is ErrBadFrame. The body aliases a buffer
// allocated per frame, so retaining it is safe.
func readFrame(r io.Reader) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size < frameHeaderLen-4 || size > maxFrame {
		return frame{}, ErrFrameTooLarge
	}
	buf := make([]byte, size-1)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, err
	}
	f := frame{msgType: hdr[4] &^ traceFlag, id: binary.LittleEndian.Uint64(buf[0:8]), body: buf[8:]}
	if hdr[4]&traceFlag != 0 {
		tc, ok := telemetry.DecodeTraceContext(f.body)
		if !ok || !tc.Sampled() {
			return frame{}, ErrBadFrame
		}
		f.tc, f.body = tc, f.body[telemetry.TraceContextLen:]
	}
	return f, nil
}

// parseHello validates an opHello body: the magic, then exactly
// protoVersion.
func parseHello(body []byte) error {
	if len(body) < 5 || [4]byte(body[0:4]) != helloMagic {
		return ErrBadFrame
	}
	if body[4] != protoVersion {
		return fmt.Errorf("%w: %d (want %d)", ErrBadVersion, body[4], protoVersion)
	}
	return nil
}

// clientHello opens a fresh connection: send the hello (request ID 0) and
// wait for the server to accept it.
func clientHello(conn net.Conn) error {
	hello := frame{msgType: opHello, body: append(helloMagic[:], protoVersion)}
	if err := writeFrame(conn, hello); err != nil {
		return fmt.Errorf("cluster: send hello: %w", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("cluster: read hello reply: %w", err)
	}
	switch resp.msgType {
	case respHello:
		if len(resp.body) < 1 || resp.body[0] != protoVersion {
			return ErrBadVersion
		}
		return nil
	case respError:
		return asRemoteError(resp.body)
	default:
		return ErrBadVersion
	}
}

// handlerFunc executes one request and returns the response frame's type
// and body. tc is the request's trace context (zero when unsampled). It
// must be safe for concurrent use: requests are dispatched in parallel.
type handlerFunc func(tc telemetry.TraceContext, msgType uint8, body []byte) (uint8, []byte)

// serveFrames drives one accepted connection. The first frame must be a
// valid opHello, or the connection is closed without running the handler.
// After it, requests are dispatched concurrently (bounded by maxInflight)
// and responses serialized by a write mutex, each tagged with the ID of
// the request it answers.
func serveFrames(conn net.Conn, handle handlerFunc) {
	hello, err := readFrame(conn)
	if err != nil || hello.msgType != opHello {
		return
	}
	if err := parseHello(hello.body); err != nil {
		writeFrame(conn, frame{msgType: respError, body: errorBodyFor(err)})
		return
	}
	if err := writeFrame(conn, frame{msgType: respHello, body: []byte{protoVersion}}); err != nil {
		return
	}
	var (
		//dynalint:allow lockio the response mutex exists to keep concurrent handler replies from interleaving on the socket
		wmu sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxInflight)
	)
	for {
		req, err := readFrame(conn)
		if err != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			respType, respBody := handle(req.tc, req.msgType, req.body)
			wmu.Lock()
			err := writeFrame(conn, frame{msgType: respType, id: req.id, body: respBody})
			wmu.Unlock()
			if err != nil {
				conn.Close() // unblocks the read loop
			}
		}()
	}
	wg.Wait()
}

// encodeReadRequest builds an opRead body: uint32(count) | count × user.
// A request that would not fit one frame is ErrTooManyTargets.
func encodeReadRequest(targets []uint32) ([]byte, error) {
	if frameHeaderLen-4+telemetry.TraceContextLen+4+4*len(targets) > maxFrame {
		return nil, fmt.Errorf("%w: %d targets exceed frame limit", ErrTooManyTargets, len(targets))
	}
	body := make([]byte, 0, 4+4*len(targets))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(targets)))
	for _, u := range targets {
		body = binary.LittleEndian.AppendUint32(body, u)
	}
	return body, nil
}

// decodeReadRequest parses an opRead body. The count is validated against
// what the body can actually hold before any allocation, in 64-bit
// arithmetic, so a hostile count can neither overallocate nor overflow
// int on 32-bit platforms.
func decodeReadRequest(body []byte) ([]uint32, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	if count64 > int64((len(body)-4)/4) {
		return nil, ErrBadFrame
	}
	targets := make([]uint32, count64)
	for i := range targets {
		targets[i] = binary.LittleEndian.Uint32(body[4+4*i:])
	}
	return targets, nil
}

// encodeReadResponse builds a respRead body: uint32(count) | count × view.
func encodeReadResponse(views []View) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(views)))
	for _, v := range views {
		out = encodeView(out, v)
	}
	return out
}

// decodeReadResponse parses a respRead body. The returned remainder holds
// whatever follows the encoded views — the membership epoch trailer (see
// decodeEpochTrailer).
func decodeReadResponse(body []byte) ([]View, []byte, error) {
	if len(body) < 4 {
		return nil, nil, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	// An encoded view is at least 10 bytes, so a count the body cannot
	// hold is malformed — reject before trusting it for allocation.
	if count64 > int64(len(body)-4)/10 {
		return nil, nil, ErrBadFrame
	}
	rest := body[4:]
	views := make([]View, 0, count64)
	for i := int64(0); i < count64; i++ {
		var v View
		var err error
		v, rest, err = decodeView(rest)
		if err != nil {
			return nil, nil, err
		}
		views = append(views, v)
	}
	return views, rest, nil
}

// View is a producer-pivoted view: the user's latest events, oldest first,
// plus a version (the WAL sequence number of the newest event).
type View struct {
	Version uint64
	Events  [][]byte
}

// encodeView appends a view's wire form to buf.
func encodeView(buf []byte, v View) []byte {
	// Grow once per view (amortized): the hot read path encodes a view per
	// response, and incremental appends would reallocate several times per
	// call.
	need := 10
	for _, e := range v.Events {
		need += 4 + len(e)
	}
	buf = slices.Grow(buf, need)
	buf = binary.LittleEndian.AppendUint64(buf, v.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Events)))
	for _, e := range v.Events {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// decodeView parses a view and returns the remaining bytes.
func decodeView(b []byte) (View, []byte, error) {
	if len(b) < 10 {
		return View{}, nil, ErrBadFrame
	}
	v := View{Version: binary.LittleEndian.Uint64(b[0:8])}
	count := int(binary.LittleEndian.Uint16(b[8:10]))
	b = b[10:]
	v.Events = make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return View{}, nil, ErrBadFrame
		}
		n := binary.LittleEndian.Uint32(b[0:4])
		if n > maxEventLen || len(b) < 4+int(n) {
			return View{}, nil, ErrBadFrame
		}
		ev := make([]byte, n)
		copy(ev, b[4:4+n])
		v.Events = append(v.Events, ev)
		b = b[4+n:]
	}
	return v, b, nil
}

// encodePeerHello builds an opPeerHello body: the sender's index in the
// cluster-wide broker list, so the receiver can sanity-check membership.
func encodePeerHello(sender uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, sender)
}

// decodePeerHello parses an opPeerHello body.
func decodePeerHello(body []byte) (uint32, error) {
	if len(body) < 4 {
		return 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint32(body[0:4]), nil
}

// placementEntry is one user's replica set on the wire: the cache-server
// indices holding its view, in replica-set order (home first). Server
// indices refer to the cluster-wide ServerAddrs order every broker shares.
type placementEntry struct {
	user  uint32
	order []int
}

// appendPlacementEntry appends one entry's wire form to buf:
// uint32(user) | uint16(n) | n × uint16(server index).
func appendPlacementEntry(buf []byte, user uint32, order []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, user)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(order)))
	for _, idx := range order {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(idx))
	}
	return buf
}

// decodePlacementEntry parses one entry and returns the remaining bytes.
func decodePlacementEntry(b []byte) (placementEntry, []byte, error) {
	if len(b) < 6 {
		return placementEntry{}, nil, ErrBadFrame
	}
	e := placementEntry{user: binary.LittleEndian.Uint32(b[0:4])}
	n := int(binary.LittleEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < 2*n {
		return placementEntry{}, nil, ErrBadFrame
	}
	e.order = make([]int, n)
	for i := range e.order {
		e.order[i] = int(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return e, b[2*n:], nil
}

// encodePlacementTable builds a respPlacement body: uint32(count) followed
// by that many placement entries — the anti-entropy snapshot of a broker's
// whole view table.
func encodePlacementTable(entries []placementEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		buf = appendPlacementEntry(buf, e.user, e.order)
	}
	return buf
}

// decodePlacementTable parses a respPlacement body. The count is validated
// against the smallest possible entry size before any allocation.
func decodePlacementTable(body []byte) ([]placementEntry, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	if count64 > int64(len(body)-4)/6 {
		return nil, ErrBadFrame
	}
	entries := make([]placementEntry, 0, count64)
	rest := body[4:]
	for i := int64(0); i < count64; i++ {
		var e placementEntry
		var err error
		e, rest, err = decodePlacementEntry(rest)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// reportRead is one follower-observed read aggregate: count reads of user's
// view served from the given cache server since the last report.
type reportRead struct {
	user   uint32
	server uint16
	count  uint32
}

// reportWrite is one follower-observed write aggregate.
type reportWrite struct {
	user  uint32
	count uint32
}

// encodeAccessReport builds an opAccessReport body:
// uint32(sender) | uint32(nReads) | nReads × {user, server, count} |
// uint32(nWrites) | nWrites × {user, count}.
func encodeAccessReport(sender uint32, reads []reportRead, writes []reportWrite) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, sender)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(reads)))
	for _, r := range reads {
		buf = binary.LittleEndian.AppendUint32(buf, r.user)
		buf = binary.LittleEndian.AppendUint16(buf, r.server)
		buf = binary.LittleEndian.AppendUint32(buf, r.count)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(writes)))
	for _, w := range writes {
		buf = binary.LittleEndian.AppendUint32(buf, w.user)
		buf = binary.LittleEndian.AppendUint32(buf, w.count)
	}
	return buf
}

// decodeAccessReport parses an opAccessReport body, validating both counts
// against the bytes actually present before allocating.
func decodeAccessReport(body []byte) (sender uint32, reads []reportRead, writes []reportWrite, err error) {
	if len(body) < 12 {
		return 0, nil, nil, ErrBadFrame
	}
	sender = binary.LittleEndian.Uint32(body[0:4])
	nReads := int64(binary.LittleEndian.Uint32(body[4:8]))
	rest := body[8:]
	if nReads > int64(len(rest))/10 {
		return 0, nil, nil, ErrBadFrame
	}
	reads = make([]reportRead, nReads)
	for i := range reads {
		reads[i] = reportRead{
			user:   binary.LittleEndian.Uint32(rest[0:4]),
			server: binary.LittleEndian.Uint16(rest[4:6]),
			count:  binary.LittleEndian.Uint32(rest[6:10]),
		}
		rest = rest[10:]
	}
	if len(rest) < 4 {
		return 0, nil, nil, ErrBadFrame
	}
	nWrites := int64(binary.LittleEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if nWrites > int64(len(rest))/8 {
		return 0, nil, nil, ErrBadFrame
	}
	writes = make([]reportWrite, nWrites)
	for i := range writes {
		writes[i] = reportWrite{
			user:  binary.LittleEndian.Uint32(rest[0:4]),
			count: binary.LittleEndian.Uint32(rest[4:8]),
		}
		rest = rest[8:]
	}
	return sender, reads, writes, nil
}

// encodeSyncWrite builds an opSyncWrite body: one durably sequenced event
// being replicated to a peer broker's write-ahead log:
// uint32(user) | uint64(seq) | uint64(at) | payload.
func encodeSyncWrite(user uint32, seq uint64, at int64, payload []byte) []byte {
	buf := make([]byte, 0, 20+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, user)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	return append(buf, payload...)
}

// decodeSyncWrite parses an opSyncWrite body. The payload aliases the frame
// buffer; callers that retain it must copy.
func decodeSyncWrite(body []byte) (user uint32, seq uint64, at int64, payload []byte, err error) {
	if len(body) < 20 {
		return 0, 0, 0, nil, ErrBadFrame
	}
	user = binary.LittleEndian.Uint32(body[0:4])
	seq = binary.LittleEndian.Uint64(body[4:12])
	at = int64(binary.LittleEndian.Uint64(body[12:20]))
	return user, seq, at, body[20:], nil
}

// encodeLogCursors builds a respLogCursors body: the responder's
// per-origin applied cursors (exclusive high-water marks: one past the
// highest applied sequence number), sorted by origin:
// uint32(n) | n × { uint64 origin, uint64 cursor }.
func encodeLogCursors(cursors map[uint64]uint64) []byte {
	origins := make([]uint64, 0, len(cursors))
	for o := range cursors {
		origins = append(origins, o)
	}
	slices.Sort(origins)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(origins)))
	for _, o := range origins {
		buf = binary.LittleEndian.AppendUint64(buf, o)
		buf = binary.LittleEndian.AppendUint64(buf, cursors[o])
	}
	return buf
}

// decodeLogCursors parses a respLogCursors body, validating the count
// against the bytes present before allocating.
func decodeLogCursors(body []byte) (map[uint64]uint64, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	rest := body[4:]
	if n > int64(len(rest))/16 {
		return nil, ErrBadFrame
	}
	cursors := make(map[uint64]uint64, n)
	for i := int64(0); i < n; i++ {
		cursors[binary.LittleEndian.Uint64(rest[0:8])] = binary.LittleEndian.Uint64(rest[8:16])
		rest = rest[16:]
	}
	return cursors, nil
}

// encodeLogPull builds an opLogPull body: "send me up to max of origin's
// records with sequence numbers at or above the cursor from":
// uint64(origin) | uint64(from) | uint32(max).
func encodeLogPull(origin, from uint64, max uint32) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, origin)
	buf = binary.LittleEndian.AppendUint64(buf, from)
	return binary.LittleEndian.AppendUint32(buf, max)
}

// decodeLogPull parses an opLogPull body.
func decodeLogPull(body []byte) (origin, from uint64, max uint32, err error) {
	if len(body) < 20 {
		return 0, 0, 0, ErrBadFrame
	}
	origin = binary.LittleEndian.Uint64(body[0:8])
	from = binary.LittleEndian.Uint64(body[8:16])
	max = binary.LittleEndian.Uint32(body[16:20])
	return origin, from, max, nil
}

// logRecordOverhead is the fixed wire size of one record in a
// respLogRecords body, before its payload.
const logRecordOverhead = 8 + 4 + 8 + 4

// encodeLogRecords builds a respLogRecords body:
// uint32(n) | n × { uint64 seq, uint32 user, uint64 at, uint32 len, payload }.
func encodeLogRecords(recs []wal.Record) []byte {
	size := 4
	for _, r := range recs {
		size += logRecordOverhead + len(r.Payload)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, r.User)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.At))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	return buf
}

// decodeLogRecords parses a respLogRecords body. Payloads alias the frame
// buffer, which readFrame allocates per frame — retaining them is safe.
func decodeLogRecords(body []byte) ([]wal.Record, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	rest := body[4:]
	if n > int64(len(rest))/logRecordOverhead {
		return nil, ErrBadFrame
	}
	recs := make([]wal.Record, 0, n)
	for i := int64(0); i < n; i++ {
		if len(rest) < logRecordOverhead {
			return nil, ErrBadFrame
		}
		r := wal.Record{
			Seq:  binary.LittleEndian.Uint64(rest[0:8]),
			User: binary.LittleEndian.Uint32(rest[8:12]),
			At:   int64(binary.LittleEndian.Uint64(rest[12:20])),
		}
		plen := binary.LittleEndian.Uint32(rest[20:24])
		rest = rest[24:]
		if plen > maxEventLen || int64(plen) > int64(len(rest)) {
			return nil, ErrBadFrame
		}
		r.Payload = rest[:plen]
		rest = rest[plen:]
		recs = append(recs, r)
	}
	return recs, nil
}

// MembershipInfo pairs a broker's current membership view with its
// per-slot replica counts (Loads[i] is how many views the broker accounts
// to slot i) — the payload of a respMembership body. Loads let an operator
// watch a draining server's replica count fall to zero before removing it.
type MembershipInfo struct {
	View  membership.View
	Loads []int64
}

// encodeMembershipInfo builds a respMembership body: the encoded view
// followed by one u64 load per slot, slot-aligned.
func encodeMembershipInfo(info MembershipInfo) []byte {
	buf := membership.AppendView(nil, info.View)
	for i := range info.View.Servers {
		var l uint64
		if i < len(info.Loads) {
			l = uint64(info.Loads[i])
		}
		buf = binary.LittleEndian.AppendUint64(buf, l)
	}
	return buf
}

// decodeMembershipInfo parses a respMembership body; the loads must cover
// every slot.
func decodeMembershipInfo(body []byte) (MembershipInfo, error) {
	v, rest, err := membership.DecodeView(body)
	if err != nil {
		return MembershipInfo{}, err
	}
	if len(rest) < 8*len(v.Servers) {
		return MembershipInfo{}, ErrBadFrame
	}
	info := MembershipInfo{View: v, Loads: make([]int64, len(v.Servers))}
	for i := range info.Loads {
		info.Loads[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return info, nil
}

// appendEpochTrailer appends the responder's membership epoch to a
// respRead, respWrite or direct-read respView body, after the structured
// payload; clients use it to notice a membership change without an extra
// round trip.
func appendEpochTrailer(body []byte, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(body, epoch)
}

// decodeEpochTrailer reads the membership epoch that follows a response's
// structured payload.
func decodeEpochTrailer(rest []byte) (uint64, error) {
	if len(rest) < 8 {
		return 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(rest[0:8]), nil
}

// LeaseReplica is one replica location in a lease: the cache server's
// membership slot and the address a client dials for direct reads.
type LeaseReplica struct {
	Slot uint16
	Addr string
}

// Lease is a broker-granted right to read one user's view straight from
// its cache servers, valid for TTL and fenced by two tokens: the
// membership epoch it was minted under and the user's placement version
// (bumped whenever a replica leaves its server). A direct read carrying
// either token stale is refused by the server, so an expired route can
// never serve a wrong view — it falls back to the broker instead.
type Lease struct {
	User      uint32
	Epoch     uint64
	Placement uint64
	TTL       time.Duration
	Replicas  []LeaseReplica
}

// appendLeaseGrant appends a lease's wire form to buf:
// uint32(user) | uint64(epoch) | uint64(placement) | uint32(ttl ms) |
// uint16(n) | n × { uint16 slot, uint16 addrLen, addr }.
func appendLeaseGrant(buf []byte, l Lease) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, l.User)
	buf = binary.LittleEndian.AppendUint64(buf, l.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, l.Placement)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.TTL/time.Millisecond))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l.Replicas)))
	for _, r := range l.Replicas {
		buf = binary.LittleEndian.AppendUint16(buf, r.Slot)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Addr)))
		buf = append(buf, r.Addr...)
	}
	return buf
}

// decodeLeaseGrant parses a respLease body. The replica count is
// validated against the bytes actually present before allocating.
func decodeLeaseGrant(b []byte) (Lease, error) {
	if len(b) < 26 {
		return Lease{}, ErrBadFrame
	}
	l := Lease{
		User:      binary.LittleEndian.Uint32(b[0:4]),
		Epoch:     binary.LittleEndian.Uint64(b[4:12]),
		Placement: binary.LittleEndian.Uint64(b[12:20]),
		TTL:       time.Duration(binary.LittleEndian.Uint32(b[20:24])) * time.Millisecond,
	}
	n := int64(binary.LittleEndian.Uint16(b[24:26]))
	b = b[26:]
	if n > int64(len(b))/4 {
		return Lease{}, ErrBadFrame
	}
	l.Replicas = make([]LeaseReplica, 0, n)
	for i := int64(0); i < n; i++ {
		if len(b) < 4 {
			return Lease{}, ErrBadFrame
		}
		slot := binary.LittleEndian.Uint16(b[0:2])
		alen := int(binary.LittleEndian.Uint16(b[2:4]))
		b = b[4:]
		if len(b) < alen {
			return Lease{}, ErrBadFrame
		}
		l.Replicas = append(l.Replicas, LeaseReplica{Slot: slot, Addr: string(b[:alen])})
		b = b[alen:]
	}
	return l, nil
}

// encodeDirectGet builds an opDirectGet body: the target user plus the
// client's two fencing tokens —
// uint32(user) | uint64(epoch) | uint64(placement).
func encodeDirectGet(user uint32, epoch, placement uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, user)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodeDirectGet parses an opDirectGet body.
func decodeDirectGet(b []byte) (user uint32, epoch, placement uint64, err error) {
	if len(b) < 20 {
		return 0, 0, 0, ErrBadFrame
	}
	user = binary.LittleEndian.Uint32(b[0:4])
	epoch = binary.LittleEndian.Uint64(b[4:12])
	placement = binary.LittleEndian.Uint64(b[12:20])
	return user, epoch, placement, nil
}

// appendStaleRoute builds a respStaleRoute body: the server's own view of
// the two fencing tokens — uint64(epoch) | uint64(placement) — so the
// refused client learns how far behind its lease is.
func appendStaleRoute(buf []byte, epoch, placement uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodeStaleRoute parses a respStaleRoute body.
func decodeStaleRoute(b []byte) (epoch, placement uint64, err error) {
	if len(b) < 16 {
		return 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), nil
}

// appendPutMeta appends the direct-read fencing metadata to an opPutView
// body, after the encoded view: uint64(epoch) | uint64(placement). The
// server learns from it the membership epoch and the placement version of
// the view it now holds.
func appendPutMeta(buf []byte, epoch, placement uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodePutMeta reads the put metadata that follows the view. A placement
// version of 0 is simply a view that was never re-placed — it can never
// out-fence a lease.
func decodePutMeta(b []byte) (epoch, placement uint64, err error) {
	if len(b) < 16 {
		return 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), nil
}

// appendBrokerStats encodes the respStats body of a broker: eleven fixed
// 8-byte counters in wire order, paired with decodeBrokerStats.
func appendBrokerStats(b []byte, st BrokerStats) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Reads))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Writes))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Replicated))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Evicted))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Misses))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Migrated))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Checkpoints))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.CompactedSegments))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.CatchupRecords))
	b = binary.LittleEndian.AppendUint64(b, st.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.LeaseGrants))
	return b
}

// decodeBrokerStats parses a broker's respStats body.
func decodeBrokerStats(body []byte) (BrokerStats, error) {
	if len(body) < 88 {
		return BrokerStats{}, ErrBadFrame
	}
	return BrokerStats{
		Reads:             int64(binary.LittleEndian.Uint64(body[0:8])),
		Writes:            int64(binary.LittleEndian.Uint64(body[8:16])),
		Replicated:        int64(binary.LittleEndian.Uint64(body[16:24])),
		Evicted:           int64(binary.LittleEndian.Uint64(body[24:32])),
		Misses:            int64(binary.LittleEndian.Uint64(body[32:40])),
		Migrated:          int64(binary.LittleEndian.Uint64(body[40:48])),
		Checkpoints:       int64(binary.LittleEndian.Uint64(body[48:56])),
		CompactedSegments: int64(binary.LittleEndian.Uint64(body[56:64])),
		CatchupRecords:    int64(binary.LittleEndian.Uint64(body[64:72])),
		Epoch:             binary.LittleEndian.Uint64(body[72:80]),
		LeaseGrants:       int64(binary.LittleEndian.Uint64(body[80:88])),
	}, nil
}

// appendServerStats encodes the respStats body of a cache server:
// uint32(views) then five 8-byte counters, paired with decodeServerStats.
func appendServerStats(b []byte, st ServerStats) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(st.Views))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Hits))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Misses))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Puts))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.DirectReads))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.DirectStale))
	return b
}

// decodeServerStats parses a cache server's respStats body.
func decodeServerStats(body []byte) (ServerStats, error) {
	if len(body) < 44 {
		return ServerStats{}, ErrBadFrame
	}
	return ServerStats{
		Views:       int(binary.LittleEndian.Uint32(body[0:4])),
		Hits:        int64(binary.LittleEndian.Uint64(body[4:12])),
		Misses:      int64(binary.LittleEndian.Uint64(body[12:20])),
		Puts:        int64(binary.LittleEndian.Uint64(body[20:28])),
		DirectReads: int64(binary.LittleEndian.Uint64(body[28:36])),
		DirectStale: int64(binary.LittleEndian.Uint64(body[36:44])),
	}, nil
}

// errorBody builds a respError payload.
func errorBody(msg string) []byte { return []byte(msg) }

// wireErrs maps the sentinel errors that keep their identity across the
// wire to one-byte codes. A coded respError body is "!<code> <message>";
// asRemoteError reattaches the sentinel so errors.Is works on the client
// side without matching on error text. Codes are part of the wire format:
// add, never reuse.
var wireErrs = []struct {
	code byte
	err  error
}{
	{'L', ErrNotLeader},
	{'E', ErrStaleEpoch},
	{'R', ErrReservedUser},
	{'T', ErrTooManyTargets},
	{'U', membership.ErrUnknownServer},
	{'D', membership.ErrDuplicateAddr},
	{'A', membership.ErrLastActive},
	{'V', ErrBadVersion},
}

// errorBodyFor builds a respError payload from an error, prefixing the
// code of the first matching wire sentinel so the remote client can
// reconstruct it. Errors matching no sentinel travel as their plain text.
func errorBodyFor(err error) []byte {
	for _, we := range wireErrs {
		if errors.Is(err, we.err) {
			return append([]byte{'!', we.code, ' '}, err.Error()...)
		}
	}
	return []byte(err.Error())
}

// remoteError is a respError decoded from the wire: it renders as the
// remote's message and unwraps to both ErrRemote and the sentinel named by
// the body's code, so errors.Is(err, cluster.ErrNotLeader) holds on the
// client exactly as it does in-process.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return "cluster: remote error: " + e.msg }

func (e *remoteError) Unwrap() []error { return []error{ErrRemote, e.sentinel} }

// asRemoteError converts a respError payload into an error, reattaching
// the coded sentinel when the body carries one.
func asRemoteError(body []byte) error {
	msg := string(body)
	if len(msg) >= 3 && msg[0] == '!' && msg[1] >= 'A' && msg[1] <= 'Z' && msg[2] == ' ' {
		for _, we := range wireErrs {
			if we.code == msg[1] {
				return &remoteError{sentinel: we.err, msg: msg[3:]}
			}
		}
		// An unknown code: surface the text untouched.
		msg = msg[3:]
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}
