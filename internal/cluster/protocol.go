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
// over one connection. Every request is answered in one shape: respOK
// with a body whose layout the request's op fixes (empty for ops that
// return nothing), or respError with the error's text (see errorBodyFor).
// The request ID pairs an answer with its request, so no answer names
// its op again. New code should use the public pkg/dynasore package,
// whose network client wraps this package's Client.
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
	// Broker <-> cache server. opGetView names a list of users and is
	// answered with each one's cached view, or a miss, in one frame (see
	// encodeGetViews).
	opGetView uint8 = iota + 1
	opPutView
	opDeleteView
	_ // retired: opServerStats (in-process callers use Server.Stats)
	// Client <-> broker.
	opRead
	opWrite
	opBrokerStats
	// Answers: respOK with the op's body, or respError. respView (with
	// respStaleRoute and respNotHere below) is a per-user status inside a
	// direct-read answer, not a frame type.
	respView
	_ // retired: respMiss (a cache miss is respOK with an empty body)
	respOK
	_ // retired: respRead
	_ // retired: respWrite
	_ // retired: respStats
	respError
	// Connection handshake: the first frame on every connection.
	opHello
	respHello
	// Broker <-> broker sync (multi-broker clusters): full-table placement
	// anti-entropy pulls, access-statistics reports from follower brokers
	// to the policy leader, and write replication between per-broker WALs.
	_ // retired: opPeerHello (liveness is the opLogCursors exchange)
	_ // retired: opPlacementDelta (one-user changes ride opPlacementBatch)
	opPlacementPull
	opAccessReport
	opSyncWrite
	_ // retired: respPlacement
	// WAL catch-up between per-broker logs (the durability/recovery
	// subsystem): a broker asks a peer for its per-origin applied
	// high-water marks, then pulls exactly the records it missed per
	// origin — so a peer that was down during replication converges
	// without waiting for new user writes. The cursor exchange, sent to
	// every peer every sync round, is also the liveness probe.
	opLogCursors
	opLogPull
	_ // retired: respLogCursors
	_ // retired: respLogRecords
	// Elastic membership (internal/membership): admin requests to read or
	// mutate the epoch-versioned cache-server registry (mutations are
	// forwarded to the leader broker). Transitions reach peers as WAL
	// records (opSyncWrite, catch-up); followers also poll the leader's
	// view with opMembershipGet.
	opMembershipGet
	opServerAdd
	opServerDrain
	opServerRemove
	_ // retired: opMembershipDelta (the transition's opSyncWrite installs it)
	_ // retired: opMembershipPull (followers poll with opMembershipGet)
	_ // retired: respMembership
	// opPlacementBatch pushes placement entries to a peer (the
	// encodePlacementTable layout): one user's new replica set after a
	// policy decision, or a rebalance or drain pass's whole outcome in
	// O(1) round trips per peer.
	opPlacementBatch
	// Direct-read fast path: a client asks the broker to lease a list of
	// users' replica sets in one request (opLeaseGet, answered with one
	// grant per leasable user), then reads the views of every leased user
	// a cache server holds in one request (opDirectGet). Two
	// fencing tokens ride every user of a direct read — the membership
	// epoch and the user's placement version — and the server answers
	// each user on its own: respView with the view, respStaleRoute when
	// it cannot prove both tokens current (fall back to the broker and
	// re-lease), or respNotHere (the replica moved away; try the next
	// one). It never silently serves a stale route. opEpochPush is the
	// broker→server epoch notification that arms the fence on servers
	// that receive no puts.
	opLeaseGet
	opDirectGet
	opEpochPush
	_ // retired: respLease
	respStaleRoute
	respNotHere

	// opViewPull asks a peer broker for its persistent store's view of one
	// user (4-byte little-endian user id → an encoded view). Every
	// acknowledged write reaches its origin broker's store before the ack,
	// so the max over live peers' answers is a floor no cache fill may go
	// below.
	opViewPull

	_ // retired: respDirect
)

// protoVersion is the one protocol version a hello may name; any other
// is refused with ErrBadVersion.
const protoVersion = 9

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

// writeFrame sends one frame whose body is the concatenation of body's
// slices. A sampled trace context sets traceFlag and rides behind the
// request ID; an unsampled one costs no bytes. Header and body go out in
// one write (writev on a TCP connection), so a gathered answer's slices
// are sent from where they lie, never copied into one buffer.
func writeFrame(w io.Writer, msgType uint8, id uint64, tc telemetry.TraceContext, body ...[]byte) error {
	if msgType&traceFlag != 0 {
		return ErrBadFrame
	}
	var hdr [frameHeaderLen + telemetry.TraceContextLen]byte
	n := frameHeaderLen
	if tc.Sampled() {
		telemetry.AppendTraceContext(hdr[frameHeaderLen:frameHeaderLen], tc)
		n, msgType = len(hdr), msgType|traceFlag
	}
	size := n - 4
	for _, b := range body {
		size += len(b)
	}
	if size > maxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(size))
	hdr[4] = msgType
	binary.LittleEndian.PutUint64(hdr[5:13], id)
	bufs := append(make(net.Buffers, 0, 1+len(body)), hdr[:n])
	bufs = append(bufs, body...)
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
	if err := writeFrame(conn, opHello, 0, telemetry.TraceContext{}, append(helloMagic[:], protoVersion)); err != nil {
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

// handlerFunc executes one request and returns the answer's body or an
// error; serveFrames turns either into the response frame. The body is a
// list of slices sent back to back (see writeFrame): an answer that
// carries views gathers them from the buffers they already lie in, and
// every other answer is a list of one. tc is the request's trace context
// (zero when unsampled). body is the request frame's own buffer, which
// the handler may keep but not write into; the answer's slices are only
// read, so they may be bytes the handler keeps too. It must be safe for
// concurrent use: requests are dispatched in parallel.
type handlerFunc func(tc telemetry.TraceContext, msgType uint8, body []byte) ([][]byte, error)

// serveFrames drives one accepted connection. The first frame must be a
// valid opHello, or the connection is closed without running the handler.
// After it, requests are dispatched concurrently (bounded by maxInflight)
// and responses serialized by a write mutex, each tagged with the ID of
// the request it answers: respOK with the handler's body, or respError
// with its error. No other code writes either type.
func serveFrames(conn net.Conn, handle handlerFunc) {
	hello, err := readFrame(conn)
	if err != nil || hello.msgType != opHello {
		return
	}
	if err := parseHello(hello.body); err != nil {
		writeFrame(conn, respError, 0, telemetry.TraceContext{}, errorBodyFor(err))
		return
	}
	if err := writeFrame(conn, respHello, 0, telemetry.TraceContext{}, []byte{protoVersion}); err != nil {
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
			body, err := handle(req.tc, req.msgType, req.body)
			msgType := respOK
			if err != nil {
				msgType, body = respError, [][]byte{errorBodyFor(err)}
			}
			wmu.Lock()
			err = writeFrame(conn, msgType, req.id, telemetry.TraceContext{}, body...)
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

// encodeReadResponse builds an opRead answer: uint32(count) | count × view
// | uint64(epoch), the broker's membership epoch (see appendEpochTrailer).
// wires holds each view's wire form, gathered as it is: views a cache
// server answered with are slices of its answer frame, so the broker
// sends their bytes on without copying them.
func encodeReadResponse(wires [][]byte, epoch uint64) [][]byte {
	// The count and the trailer share one buffer.
	head := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+8), uint32(len(wires)))
	out := append(make([][]byte, 0, len(wires)+2), head)
	for _, w := range wires {
		out = appendViewWire(out, w)
	}
	return append(out, appendEpochTrailer(head[4:4], epoch))
}

// decodeReadResponse parses an opRead answer: the views and the broker's
// membership epoch that follows them.
func decodeReadResponse(body []byte) ([]View, uint64, error) {
	if len(body) < 4 {
		return nil, 0, ErrBadFrame
	}
	count64 := int64(binary.LittleEndian.Uint32(body[0:4]))
	// An encoded view is at least 10 bytes, so a count the body cannot
	// hold is malformed — reject before trusting it for allocation.
	if count64 > int64(len(body)-4)/10 {
		return nil, 0, ErrBadFrame
	}
	rest := body[4:]
	views := make([]View, 0, count64)
	for i := int64(0); i < count64; i++ {
		var v View
		var err error
		// The pair of the appendViewWire the answer was gathered with.
		v, _, rest, err = decodeViewWire(rest)
		if err != nil {
			return nil, 0, err
		}
		views = append(views, v)
	}
	epoch, err := decodeEpochTrailer(rest)
	if err != nil {
		return nil, 0, err
	}
	return views, epoch, nil
}

// View is a producer-pivoted view: the user's latest events, oldest first,
// plus a version (the WAL sequence number of the newest event). Each event
// carries its sequence number, which identifies it cluster-wide (brokers
// mint from disjoint sequence spaces), so two copies of one user's view
// merge by it (see mergeViews) instead of one replacing the other.
type View struct {
	Version uint64
	Events  [][]byte
	// seqs holds each event's sequence number, index-aligned with Events
	// and strictly ascending. A slice beside Events, not a seq inside
	// each event, keeps Events the [][]byte that pkg/dynasore's public
	// View and the gateway hand out without copying.
	seqs []uint64
}

// encodeView appends a view's wire form to buf: uint64(version) |
// uint16(n) | n × { uint64 seq, uint32 len, payload }. Callers that encode
// several views, or a view between other fields, size buf first; a buf
// without room grows once, not once per event.
func encodeView(buf []byte, v View) []byte {
	buf = slices.Grow(buf, viewLen(v))
	buf = binary.LittleEndian.AppendUint64(buf, v.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v.Events)))
	for i, e := range v.Events {
		buf = binary.LittleEndian.AppendUint64(buf, v.seqs[i])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// viewLen is the encoded size of v.
func viewLen(v View) int {
	n := 10
	for _, e := range v.Events {
		n += 12 + len(e)
	}
	return n
}

// decodeView parses a view and returns the remaining bytes. Sequence
// numbers must strictly ascend: mergeViews relies on it, and the bytes
// come from the network.
//
// Events are not copied: each is a slice of b capped at its own length,
// so an append to one event reallocates instead of overwriting the next
// event's header. This is safe because readFrame allocates a new buffer
// for every frame and nothing writes into a frame once it is read; the
// events are read-only, and retaining one retains the whole frame.
func decodeView(b []byte) (View, []byte, error) {
	if len(b) < 10 {
		return View{}, nil, ErrBadFrame
	}
	v := View{Version: binary.LittleEndian.Uint64(b[0:8])}
	count := int(binary.LittleEndian.Uint16(b[8:10]))
	b = b[10:]
	v.Events = make([][]byte, 0, count)
	v.seqs = make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 12 {
			return View{}, nil, ErrBadFrame
		}
		seq := binary.LittleEndian.Uint64(b[0:8])
		n := binary.LittleEndian.Uint32(b[8:12])
		if n > maxEventLen || len(b) < 12+int(n) || (i > 0 && seq <= v.seqs[i-1]) {
			return View{}, nil, ErrBadFrame
		}
		end := 12 + int(n)
		v.Events = append(v.Events, b[12:end:end])
		v.seqs = append(v.seqs, seq)
		b = b[end:]
	}
	return v, b, nil
}

// appendViewWire appends a view already in its wire form — a cache
// server's cached bytes, which passed decodeViewWire when they were put,
// or a slice of a frame that did — to a gathered answer as one more
// slice. The bytes are not copied: writeFrame sends them from where they
// lie.
func appendViewWire(out [][]byte, wire []byte) [][]byte {
	return append(out, wire)
}

// decodeViewWire parses a view as decodeView does and also returns its
// wire form: the slice of b the view was parsed from, capped at its end.
//
//dynalint:allow codecpair appendViewWire gathers bytes that passed this decoder when they were put, so its fingerprint lacks the CALL(View) this decoder makes
func decodeViewWire(b []byte) (v View, wire, rest []byte, err error) {
	v, rest, err = decodeView(b)
	if err != nil {
		return View{}, nil, nil, err
	}
	end := len(b) - len(rest)
	return v, b[:end:end], rest, nil
}

// encodeGetViews builds the answer to an opGetView of n users: uint32(n)
// | n × uint32(len) | the n views' wire forms back to back, where view(i)
// is the i-th user's cached view and an empty one (len 0) a miss — an
// encoded view is never empty. Only the count and the lengths are
// written; each view is gathered from the buffer the cache server keeps
// it in, so an answer costs its header and its list of slices whatever
// n is.
func encodeGetViews(n int, view func(i int) []byte) [][]byte {
	head := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+4*n), uint32(n))
	out := append(make([][]byte, 0, 1+n), nil)
	for i := 0; i < n; i++ {
		w := view(i)
		head = binary.LittleEndian.AppendUint32(head, uint32(len(w)))
		if len(w) > 0 {
			out = appendViewWire(out, w)
		}
	}
	out[0] = head
	return out
}

// decodeGetViews parses an opGetView answer into each user's view and
// its wire form, a slice of b (a zero View and a nil wire for a miss).
// The count is checked against the bytes present before anything is
// allocated, and each length before the view it names is sliced or
// decoded; each view must fill its length exactly, and nothing may
// follow the last one.
func decodeGetViews(b []byte) ([]View, [][]byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(b[0:4]))
	if n > int64(len(b)-4)/4 {
		return nil, nil, ErrBadFrame
	}
	lens, rest := b[4:4+4*n], b[4+4*n:]
	views, wires := make([]View, n), make([][]byte, n)
	for i := range views {
		l := int64(binary.LittleEndian.Uint32(lens[4*i:]))
		if l > int64(len(rest)) {
			return nil, nil, ErrBadFrame
		}
		if l == 0 {
			continue
		}
		v, wire, tail, err := decodeViewWire(rest[:l])
		if err != nil || len(tail) != 0 {
			return nil, nil, ErrBadFrame
		}
		views[i], wires[i], rest = v, wire, rest[l:]
	}
	if len(rest) != 0 {
		return nil, nil, ErrBadFrame
	}
	return views, wires, nil
}

// mergeViews returns the union by sequence number of two copies of one
// user's view, keeping the newest limit (at least one) events, at the
// higher of the two versions. The union never duplicates an event and
// never loses one either copy holds within the limit, so copies put by
// brokers whose stores differ (a peer's event still in flight) converge
// whatever order they land in. Where both copies hold an event, in's
// bytes are kept.
func mergeViews(cur, in View, limit int) View {
	version := max(cur.Version, in.Version)
	// Walk both copies from the newest event down, twice: first to size
	// the result exactly (a cached view lives long, so slack in it would
	// be heap) and to learn whether any of cur's own events are in it,
	// then to fill it.
	n, i, j, fromCur := 0, len(cur.seqs)-1, len(in.seqs)-1, false
	for ; n < limit && (i >= 0 || j >= 0); n++ {
		ni, nj := nextNewest(cur.seqs, in.seqs, i, j)
		fromCur = fromCur || nj == j
		i, j = ni, nj
	}
	if !fromCur {
		// The put already holds the union's newest n events — the common
		// case, a broker's put of a view that grew by one event — so it
		// is kept as it is, without a copy.
		k := len(in.seqs) - n
		return View{Version: version, Events: in.Events[k:], seqs: in.seqs[k:]}
	}
	v := View{Version: version, Events: make([][]byte, n), seqs: make([]uint64, n)}
	i, j = len(cur.seqs)-1, len(in.seqs)-1
	for k := n - 1; k >= 0; k-- {
		if ni, nj := nextNewest(cur.seqs, in.seqs, i, j); nj < j {
			v.Events[k], v.seqs[k] = in.Events[j], in.seqs[j]
			i, j = ni, nj
		} else {
			v.Events[k], v.seqs[k] = cur.Events[i], cur.seqs[i]
			i = ni
		}
	}
	return v
}

// nextNewest steps past the newest event not yet taken in a walk down two
// ascending seq lists, a from index i and b from j: it returns the new
// indices, having stepped both when the two lists share that seq.
func nextNewest(a, b []uint64, i, j int) (int, int) {
	switch {
	case j < 0 || i >= 0 && a[i] > b[j]:
		return i - 1, j
	case i < 0 || b[j] > a[i]:
		return i, j - 1
	default:
		return i - 1, j - 1
	}
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

// encodePlacementTable builds an opPlacementBatch body or opPlacementPull answer:
// uint32(count) followed by that many placement entries.
func encodePlacementTable(entries []placementEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		buf = appendPlacementEntry(buf, e.user, e.order)
	}
	return buf
}

// decodePlacementTable parses an opPlacementBatch body or opPlacementPull answer.
// The count is validated against the smallest possible entry size before
// any allocation, and bytes past the last entry are rejected.
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
	if len(rest) != 0 {
		return nil, ErrBadFrame
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

// encodeLogCursors builds an opLogCursors answer: the responder's
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

// decodeLogCursors parses an opLogCursors answer, validating the count
// against the bytes present before allocating. Only the encoder's form is
// accepted: exactly count pairs, origins strictly ascending.
func decodeLogCursors(body []byte) (map[uint64]uint64, error) {
	if len(body) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	rest := body[4:]
	if int64(len(rest)) != 16*n {
		return nil, ErrBadFrame
	}
	cursors := make(map[uint64]uint64, n)
	var prev uint64
	for i := int64(0); i < n; i++ {
		origin := binary.LittleEndian.Uint64(rest[0:8])
		if i > 0 && origin <= prev {
			return nil, ErrBadFrame
		}
		cursors[origin] = binary.LittleEndian.Uint64(rest[8:16])
		prev, rest = origin, rest[16:]
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
// opLogPull answer, before its payload.
const logRecordOverhead = 8 + 4 + 8 + 4

// encodeLogRecords builds an opLogPull answer:
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

// decodeLogRecords parses an opLogPull answer. Payloads alias the frame
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
// to slot i) — the answer to opMembershipGet and to a membership change. Loads let an operator
// watch a draining server's replica count fall to zero before removing it.
type MembershipInfo struct {
	View  membership.View
	Loads []int64
}

// encodeMembershipInfo builds the answer to an admin op: the encoded view
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

// decodeMembershipInfo parses the answer to an admin op; the loads must cover
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
// read, write or direct-read answer, after the structured
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

// MaxBatch is the most users a client names in one opRead, opLeaseGet or
// opDirectGet; longer lists go out as several frames. A direct get's
// count is a uint16, and 256 views keep an answer far below maxFrame.
const MaxBatch = 256

// encodeLeaseGrants builds an opLeaseGet answer: uint32(n) | n × grant
// (appendLeaseGrant). Each grant names its user; a requested user the
// broker could not lease is left out. (An opLeaseGet body is a user list
// in the opRead layout, encodeReadRequest.)
func encodeLeaseGrants(ls []Lease) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ls)))
	for _, l := range ls {
		buf = appendLeaseGrant(buf, l)
	}
	return buf
}

// decodeLeaseGrants parses an opLeaseGet answer. The count is checked against
// the bytes present before allocating, and nothing may follow the last
// grant.
func decodeLeaseGrants(b []byte) ([]Lease, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	n := int64(binary.LittleEndian.Uint32(b[0:4]))
	b = b[4:]
	if n > int64(len(b)/leaseGrantMinLen) {
		return nil, ErrBadFrame
	}
	ls := make([]Lease, 0, n)
	for i := int64(0); i < n; i++ {
		l, rest, err := decodeLeaseGrant(b)
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		b = rest
	}
	if len(b) != 0 {
		return nil, ErrBadFrame
	}
	return ls, nil
}

// leaseGrantMinLen is the wire size of a grant with no replicas.
const leaseGrantMinLen = 26

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

// decodeLeaseGrant parses one grant and returns the bytes after it. The
// replica count is validated against the bytes actually present before
// allocating.
func decodeLeaseGrant(b []byte) (Lease, []byte, error) {
	if len(b) < leaseGrantMinLen {
		return Lease{}, nil, ErrBadFrame
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
		return Lease{}, nil, ErrBadFrame
	}
	l.Replicas = make([]LeaseReplica, 0, n)
	for i := int64(0); i < n; i++ {
		if len(b) < 4 {
			return Lease{}, nil, ErrBadFrame
		}
		slot := binary.LittleEndian.Uint16(b[0:2])
		alen := int(binary.LittleEndian.Uint16(b[2:4]))
		b = b[4:]
		if len(b) < alen {
			return Lease{}, nil, ErrBadFrame
		}
		l.Replicas = append(l.Replicas, LeaseReplica{Slot: slot, Addr: string(b[:alen])})
		b = b[alen:]
	}
	return l, b, nil
}

// directGetReq is one user of a batched direct read: the user and the
// two fencing tokens of the client's lease on it.
type directGetReq struct {
	user             uint32
	epoch, placement uint64
}

// directGetReqLen is the wire size of one directGetReq.
const directGetReqLen = 20

// encodeDirectGet builds an opDirectGet body — uint16(n) | n ×
// { uint32(user) | uint64(epoch) | uint64(placement) }. Callers keep n
// within MaxBatch.
func encodeDirectGet(reqs []directGetReq) []byte {
	buf := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+directGetReqLen*len(reqs)), uint16(len(reqs)))
	for _, r := range reqs {
		buf = binary.LittleEndian.AppendUint32(buf, r.user)
		buf = binary.LittleEndian.AppendUint64(buf, r.epoch)
		buf = binary.LittleEndian.AppendUint64(buf, r.placement)
	}
	return buf
}

// decodeDirectGet parses an opDirectGet body. The body must hold exactly
// the users its count names.
func decodeDirectGet(b []byte) ([]directGetReq, error) {
	if len(b) < 2 {
		return nil, ErrBadFrame
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) != directGetReqLen*n {
		return nil, ErrBadFrame
	}
	reqs := make([]directGetReq, n)
	for i := range reqs {
		r := b[directGetReqLen*i:]
		reqs[i] = directGetReq{
			user:      binary.LittleEndian.Uint32(r[0:4]),
			epoch:     binary.LittleEndian.Uint64(r[4:12]),
			placement: binary.LittleEndian.Uint64(r[12:20]),
		}
	}
	return reqs, nil
}

// directAnswer is a cache server's answer for one user of a batched
// direct read.
type directAnswer struct {
	// status is respView (view is valid), respStaleRoute (the lease is
	// fenced: epoch and placement are the server's own tokens) or
	// respNotHere (this replica does not hold the view).
	status uint8
	// wire is a respView answer's view in its wire form: the cache
	// server's cached bytes, which encodeDirectAnswers copies in as they
	// are, or the slice of the frame decodeDirectAnswers parsed view from.
	wire             []byte
	view             View
	epoch, placement uint64
}

// encodeDirectAnswers builds an opDirectGet answer: uint16(n) | n ×
// { uint8(status) | view (respView) or stale-route tokens
// (respStaleRoute) or nothing (respNotHere) } | uint64(epoch) — the
// answering server's membership epoch. The views are gathered from the
// cache server's buffers; every other byte goes into one buffer, sliced
// around them.
func encodeDirectAnswers(answers []directAnswer, epoch uint64) [][]byte {
	// Size that buffer exactly: the slices taken of it below must not
	// move when it grows.
	size, views := 2+len(answers)+8, 0
	for _, a := range answers {
		switch a.status {
		case respView:
			views++
		case respStaleRoute:
			size += staleRouteLen
		}
	}
	buf := binary.LittleEndian.AppendUint16(make([]byte, 0, size), uint16(len(answers)))
	out, from := make([][]byte, 0, 2*views+1), 0
	for _, a := range answers {
		buf = append(buf, a.status)
		switch a.status {
		case respView:
			out = appendViewWire(append(out, buf[from:]), a.wire)
			from = len(buf)
		case respStaleRoute:
			buf = appendStaleRoute(buf, a.epoch, a.placement)
		}
	}
	return append(out, appendEpochTrailer(buf, epoch)[from:])
}

// decodeDirectAnswers parses an opDirectGet answer. The count is checked
// against the bytes present before allocating (every answer takes at
// least its status byte); an unknown status, a truncated answer or bytes
// after the epoch trailer are ErrBadFrame.
func decodeDirectAnswers(b []byte) ([]directAnswer, uint64, error) {
	if len(b) < 2 {
		return nil, 0, ErrBadFrame
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	b = b[2:]
	if n > len(b) {
		return nil, 0, ErrBadFrame
	}
	answers := make([]directAnswer, n)
	for i := range answers {
		if len(b) < 1 {
			return nil, 0, ErrBadFrame
		}
		a := &answers[i]
		a.status = b[0]
		b = b[1:]
		switch a.status {
		case respView:
			v, wire, rest, err := decodeViewWire(b)
			if err != nil {
				return nil, 0, err
			}
			a.view, a.wire, b = v, wire, rest
		case respStaleRoute:
			e, pv, err := decodeStaleRoute(b)
			if err != nil {
				return nil, 0, err
			}
			a.epoch, a.placement, b = e, pv, b[staleRouteLen:]
		case respNotHere:
		default:
			return nil, 0, ErrBadFrame
		}
	}
	epoch, err := decodeEpochTrailer(b)
	if err != nil || len(b) != 8 {
		return nil, 0, ErrBadFrame
	}
	return answers, epoch, nil
}

// staleRouteLen is the wire size of a respStaleRoute's two tokens.
const staleRouteLen = 16

// appendStaleRoute appends a respStaleRoute answer: the server's own view
// of the two fencing tokens — uint64(epoch) | uint64(placement) — so the
// refused client learns how far behind its lease is.
func appendStaleRoute(buf []byte, epoch, placement uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint64(buf, placement)
}

// decodeStaleRoute parses a respStaleRoute answer.
func decodeStaleRoute(b []byte) (epoch, placement uint64, err error) {
	if len(b) < staleRouteLen {
		return 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), nil
}

// putMetaLen is the wire size of the put metadata (appendPutMeta).
const putMetaLen = 18

// appendPutMeta appends the put metadata to an opPutView body, after the
// encoded view: uint64(epoch) | uint64(placement) | uint16(limit). The
// server learns from it the membership epoch and the placement version of
// the view it now holds, and how many events the merged view may keep —
// the putting broker's view cap (a view's event count is a uint16 too).
func appendPutMeta(buf []byte, epoch, placement uint64, limit int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, placement)
	return binary.LittleEndian.AppendUint16(buf, uint16(limit))
}

// decodePutMeta reads the put metadata that follows the view. A placement
// version of 0 is simply a view that was never re-placed — it can never
// out-fence a lease. A limit of 0 would cache nothing and is malformed.
func decodePutMeta(b []byte) (epoch, placement uint64, limit int, err error) {
	if len(b) < putMetaLen {
		return 0, 0, 0, ErrBadFrame
	}
	limit = int(binary.LittleEndian.Uint16(b[16:18]))
	if limit == 0 {
		return 0, 0, 0, ErrBadFrame
	}
	return binary.LittleEndian.Uint64(b[0:8]), binary.LittleEndian.Uint64(b[8:16]), limit, nil
}

// appendBrokerStats encodes a broker's opBrokerStats answer: eleven fixed
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

// decodeBrokerStats parses a broker's opBrokerStats answer.
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
// A remote error relayed as it came (a follower forwarding its leader's
// answer) travels as the remote's own message, so the client sees it once.
func errorBodyFor(err error) []byte {
	msg := err.Error()
	if re, ok := err.(*remoteError); ok {
		msg = re.msg
	}
	for _, we := range wireErrs {
		if errors.Is(err, we.err) {
			return append([]byte{'!', we.code, ' '}, msg...)
		}
	}
	return []byte(msg)
}

// remoteError is a respError decoded from the wire: it renders as the
// remote's message and unwraps to ErrRemote and, when the body carried a
// code, to the sentinel it names, so errors.Is(err, cluster.ErrNotLeader)
// holds on the client exactly as it does in-process.
type remoteError struct {
	sentinel error // nil for an uncoded body
	msg      string
}

func (e *remoteError) Error() string { return "cluster: remote error: " + e.msg }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{ErrRemote, e.sentinel}
}

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
	return &remoteError{msg: msg}
}
