package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
)

// Client is the one client-side connection type of the wire protocol. It
// talks the paper's API (§3.1) to a broker — Read(u, L) fetches the views
// of the users in L; Write(u) publishes a new event to u's view — and it
// is also every link a DirectReader keeps to a cache server and a broker
// keeps to its cache servers and peer brokers. Every request carries an
// ID, so many requests are in flight concurrently on each connection: a
// writer tags the frame, a per-connection reader goroutine demuxes
// responses to the waiting callers. A small pool of such connections
// spreads load further. All methods are safe for concurrent use and honor
// context cancellation; a request whose context is already done is never
// sent.
type Client struct {
	addr   string
	conns  []*muxConn
	next   atomic.Uint64
	closed atomic.Bool
	// epoch is the highest membership epoch observed in read and write
	// response trailers — how a client notices the cluster's cache-server
	// set changed without polling.
	epoch atomic.Uint64

	// tel mints trace contexts and records client-side op latency.
	tel       *telemetry.Node
	readHist  *telemetry.Histogram
	writeHist *telemetry.Histogram
}

// DefaultPoolSize is the connection pool size used when Dial gets
// poolSize <= 0.
const DefaultPoolSize = 2

// dialTimeout bounds a dial whose context carries no earlier deadline.
const dialTimeout = 10 * time.Second

// Dial connects to a broker (or, for direct reads, a cache server) with
// poolSize multiplexed connections (DefaultPoolSize if <= 0). The first
// connection is established eagerly so hello failures surface
// immediately; the rest are dialed lazily on first use.
func Dial(ctx context.Context, addr string, poolSize int) (*Client, error) {
	c := newClient(addr, poolSize, telemetry.Default())
	if err := c.conns[0].connect(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient returns a client for addr that dials nothing until its first
// request, with its instruments on tel.
func newClient(addr string, poolSize int, tel *telemetry.Node) *Client {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &Client{addr: addr}
	c.setTelemetry(tel)
	for i := 0; i < poolSize; i++ {
		c.conns = append(c.conns, &muxConn{client: c})
	}
	return c
}

// setTelemetry puts the client's sampling and latency instruments on n;
// tests that must not share a node call it again with an isolated one.
func (c *Client) setTelemetry(n *telemetry.Node) {
	c.tel = n
	c.readHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "read")
	c.writeHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "write")
}

// wireResp is one demuxed response frame.
type wireResp struct {
	msgType uint8
	body    []byte
	err     error
}

// muxConn is one multiplexed connection: a write mutex serializes outgoing
// frames, a reader goroutine routes incoming frames to pending callers by
// request ID. A broken connection fails all pending calls and is redialed
// transparently on the next request.
type muxConn struct {
	client *Client

	//dynalint:allow lockio connect holds the lock across dial+hello so concurrent callers dial exactly once
	mu      sync.Mutex // guards conn, gen, pending
	conn    net.Conn
	gen     uint64 // bumped on every (re)dial, detects stale failures
	pending map[uint64]chan wireResp

	//dynalint:allow lockio the write mutex exists to keep concurrent frame writes from interleaving on the socket
	wmu    sync.Mutex // serializes frame writes
	nextID atomic.Uint64
}

// connect establishes the connection and performs the hello. It is a
// no-op when the connection is already live.
func (m *muxConn) connect(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn != nil {
		return nil
	}
	if m.client.closed.Load() {
		return net.ErrClosed
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", m.client.addr)
	if err != nil {
		return fmt.Errorf("cluster: dial %s: %w", m.client.addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	if err := clientHello(conn); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: hello %s: %w", m.client.addr, err)
	}
	conn.SetDeadline(time.Time{})
	m.conn = conn
	m.gen++
	m.pending = make(map[uint64]chan wireResp)
	go m.readLoop(conn, m.gen)
	return nil
}

// readLoop demuxes response frames to their callers until the connection
// breaks.
func (m *muxConn) readLoop(conn net.Conn, gen uint64) {
	for {
		resp, err := readFrame(conn)
		if err != nil {
			m.fail(gen, err)
			return
		}
		m.mu.Lock()
		var ch chan wireResp
		if m.gen == gen {
			ch = m.pending[resp.id]
			delete(m.pending, resp.id)
		}
		m.mu.Unlock()
		if ch != nil {
			ch <- wireResp{msgType: resp.msgType, body: resp.body}
		}
	}
}

// fail tears down generation gen of the connection, propagating err to
// every pending caller. Failures of an already-replaced generation are
// ignored.
func (m *muxConn) fail(gen uint64, err error) {
	m.mu.Lock()
	if m.gen != gen {
		m.mu.Unlock()
		return
	}
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
	}
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, ch := range pending {
		ch <- wireResp{err: err}
	}
}

// do performs one multiplexed round trip carrying trace context tc. A
// context that is already done fails the call before anything is sent:
// once the frame is out, the select below may pick either a ready response
// or a done context, so checking first is what keeps a cancelled Write
// from being applied.
func (m *muxConn) do(ctx context.Context, msgType uint8, body []byte, tc telemetry.TraceContext) (uint8, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if err := m.connect(ctx); err != nil {
		return 0, nil, err
	}
	id := m.nextID.Add(1)
	ch := make(chan wireResp, 1)

	m.mu.Lock()
	if m.conn == nil || m.pending == nil {
		m.mu.Unlock()
		return 0, nil, fmt.Errorf("cluster: connection lost before send")
	}
	conn, gen := m.conn, m.gen
	m.pending[id] = ch
	m.mu.Unlock()
	if err := ctx.Err(); err != nil {
		m.forget(gen, id)
		return 0, nil, err
	}

	m.wmu.Lock()
	err := writeFrame(conn, frame{msgType: msgType, id: id, tc: tc, body: body})
	m.wmu.Unlock()
	if err != nil {
		m.fail(gen, err)
		m.forget(gen, id)
		return 0, nil, err
	}

	select {
	case r := <-ch:
		return r.msgType, r.body, r.err
	case <-ctx.Done():
		m.forget(gen, id)
		return 0, nil, ctx.Err()
	}
}

// forget abandons a pending request (the reader drops unmatched IDs).
func (m *muxConn) forget(gen, id uint64) {
	m.mu.Lock()
	if m.gen == gen && m.pending != nil {
		delete(m.pending, id)
	}
	m.mu.Unlock()
}

func (m *muxConn) close() {
	m.fail(m.generation(), net.ErrClosed)
}

func (m *muxConn) generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// pick returns the next pool connection, round robin.
func (c *Client) pick() *muxConn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// do performs one untraced round trip.
func (c *Client) do(ctx context.Context, msgType uint8, body []byte) (uint8, []byte, error) {
	return c.doTraced(ctx, msgType, body, telemetry.TraceContext{})
}

// doTraced performs one round trip whose frame carries tc.
func (c *Client) doTraced(ctx context.Context, msgType uint8, body []byte, tc telemetry.TraceContext) (uint8, []byte, error) {
	if c.closed.Load() {
		return 0, nil, net.ErrClosed
	}
	return c.pick().do(ctx, msgType, body, tc)
}

// roundTrip performs one round trip on a broker's link to a cache server
// or peer broker. A failed dial is reported at once; a connection that
// breaks under the request is torn down and the request retried once on
// a fresh dial, so a server restarted since the last request is never
// reported unreachable. Only idempotent ops go this way — puts merge by
// sequence number, sync writes apply idempotently, pulls and probes are
// reads; API requests are never resent. A retired (closed) link reports
// ErrStaleEpoch: the operation acted under a membership table the broker
// has since replaced.
func (c *Client) roundTrip(ctx context.Context, msgType uint8, body []byte, tc telemetry.TraceContext) (uint8, []byte, error) {
	m := c.pick()
	var respType uint8
	var respBody []byte
	err := m.connect(ctx)
	if err == nil {
		respType, respBody, err = m.do(ctx, msgType, body, tc)
		if err != nil && ctx.Err() == nil && !c.closed.Load() {
			respType, respBody, err = m.do(ctx, msgType, body, tc)
		}
	}
	if err != nil && c.closed.Load() {
		err = fmt.Errorf("cluster: link to %s retired: %w", c.addr, ErrStaleEpoch)
	}
	return respType, respBody, err
}

// serverCallTimeout bounds every broker → cache-server call (dial and
// retry included), so a server that accepts connections but never answers
// fails the write or read it stalls — and lets Broker.Close return —
// instead of blocking it forever.
const serverCallTimeout = 5 * time.Second

// serverCall is roundTrip under serverCallTimeout.
func (c *Client) serverCall(msgType uint8, body []byte, tc telemetry.TraceContext) (uint8, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serverCallTimeout)
	defer cancel()
	return c.roundTrip(ctx, msgType, body, tc)
}

// getView fetches a view from a cache server; ok is false on a cache
// miss. A sampled tc makes the cache server's span join the trace.
func (c *Client) getView(user uint32, tc telemetry.TraceContext) (View, bool, error) {
	respType, respBody, err := c.serverCall(opGetView, binary.LittleEndian.AppendUint32(nil, user), tc)
	if err != nil {
		return View{}, false, err
	}
	switch respType {
	case respView:
		v, _, err := decodeView(respBody)
		return v, true, err
	case respMiss:
		return View{}, false, nil
	case respError:
		return View{}, false, asRemoteError(respBody)
	default:
		return View{}, false, ErrBadFrame
	}
}

// putView merges a view into a cache server's copy, stamped with the
// direct-read fencing tokens — the broker's membership epoch and the
// user's placement version — and capped at limit events. A sampled tc
// makes the server's span join the trace.
func (c *Client) putView(user uint32, v View, epoch, placement uint64, limit int, tc telemetry.TraceContext) error {
	body := binary.LittleEndian.AppendUint32(nil, user)
	body = encodeView(body, v)
	body = appendPutMeta(body, epoch, placement, limit)
	return expectOK(c.serverCall(opPutView, body, tc))
}

// pushEpoch teaches a cache server the broker's current membership epoch,
// so direct reads fence correctly on servers that receive no puts.
func (c *Client) pushEpoch(epoch uint64) error {
	return expectOK(c.serverCall(opEpochPush, binary.LittleEndian.AppendUint64(nil, epoch), telemetry.TraceContext{}))
}

// deleteView removes a replica from a cache server.
func (c *Client) deleteView(user uint32) error {
	return expectOK(c.serverCall(opDeleteView, binary.LittleEndian.AppendUint32(nil, user), telemetry.TraceContext{}))
}

// expectOK maps a round trip's outcome to nil for respOK and to an error
// otherwise.
func expectOK(respType uint8, respBody []byte, err error) error {
	switch {
	case err != nil:
		return err
	case respType == respError:
		return asRemoteError(respBody)
	case respType != respOK:
		return ErrBadFrame
	}
	return nil
}

// Read fetches the views of every user in targets, in order. Requests
// that would not fit one frame return ErrTooManyTargets.
func (c *Client) Read(ctx context.Context, targets []uint32) ([]View, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	start := time.Now()
	sp := c.tel.StartSpan(c.tel.Sample(), "client.read")
	body, err := encodeReadRequest(targets)
	if err != nil {
		return nil, err
	}
	sp.Stage("encode")
	respType, respBody, err := c.doTraced(ctx, opRead, body, sp.Context())
	if err != nil {
		return nil, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.Stage("decode")
		sp.End()
		c.readHist.Observe(time.Since(start))
	}()
	switch respType {
	case respRead:
		views, rest, err := decodeReadResponse(respBody)
		if err != nil {
			return nil, err
		}
		if len(views) != len(targets) {
			return nil, fmt.Errorf("%w: %d views for %d targets", ErrBadFrame, len(views), len(targets))
		}
		epoch, err := decodeEpochTrailer(rest)
		if err != nil {
			return nil, err
		}
		c.noteEpoch(epoch)
		return views, nil
	case respError:
		return nil, asRemoteError(respBody)
	default:
		return nil, ErrBadFrame
	}
}

// Write publishes an event produced by user and returns its sequence number.
func (c *Client) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	start := time.Now()
	sp := c.tel.StartSpan(c.tel.Sample(), "client.write")
	body := binary.LittleEndian.AppendUint32(nil, user)
	body = append(body, payload...)
	sp.Stage("encode")
	respType, respBody, err := c.doTraced(ctx, opWrite, body, sp.Context())
	if err != nil {
		return 0, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.End()
		c.writeHist.Observe(time.Since(start))
	}()
	switch respType {
	case respWrite:
		if len(respBody) < 8 {
			return 0, ErrBadFrame
		}
		epoch, err := decodeEpochTrailer(respBody[8:])
		if err != nil {
			return 0, err
		}
		c.noteEpoch(epoch)
		return binary.LittleEndian.Uint64(respBody), nil
	case respError:
		return 0, asRemoteError(respBody)
	default:
		return 0, ErrBadFrame
	}
}

// Leases asks the broker for direct-read leases on users: each grant
// names its user's replica addresses plus the fencing tokens a
// DirectReader presents to cache servers. A user the broker cannot lease
// has no grant. Lists longer than MaxBatch go out as several requests.
func (c *Client) Leases(ctx context.Context, users []uint32) ([]Lease, error) {
	var out []Lease
	for len(users) > 0 {
		n := min(len(users), MaxBatch)
		body, err := encodeReadRequest(users[:n])
		if err != nil {
			return nil, err
		}
		respType, respBody, err := c.do(ctx, opLeaseGet, body)
		if err != nil {
			return nil, err
		}
		switch respType {
		case respLease:
			ls, err := decodeLeaseGrants(respBody)
			if err != nil {
				return nil, err
			}
			for _, l := range ls {
				c.noteEpoch(l.Epoch)
			}
			out = append(out, ls...)
		case respError:
			return nil, asRemoteError(respBody)
		default:
			return nil, ErrBadFrame
		}
		users = users[n:]
	}
	return out, nil
}

// directGet performs one batched, fenced direct read against a cache
// server: one answer per request, in order (see directAnswer). Callers
// keep the batch within MaxBatch.
func (c *Client) directGet(ctx context.Context, reqs []directGetReq) ([]directAnswer, error) {
	respType, respBody, err := c.do(ctx, opDirectGet, encodeDirectGet(reqs))
	if err != nil {
		return nil, err
	}
	switch respType {
	case respDirect:
		answers, epoch, err := decodeDirectAnswers(respBody)
		if err != nil {
			return nil, err
		}
		c.noteEpoch(epoch)
		if len(answers) != len(reqs) {
			return nil, fmt.Errorf("%w: %d direct answers for %d users", ErrBadFrame, len(answers), len(reqs))
		}
		return answers, nil
	case respError:
		return nil, asRemoteError(respBody)
	default:
		return nil, ErrBadFrame
	}
}

// noteEpoch records the highest membership epoch seen in a response
// trailer.
func (c *Client) noteEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest membership epoch this client has observed in
// broker responses (0 until the first read or write against an
// elastic-membership broker).
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Membership fetches the broker's current membership view and per-slot
// replica counts.
func (c *Client) Membership(ctx context.Context) (MembershipInfo, error) {
	respType, body, err := c.do(ctx, opMembershipGet, nil)
	if err != nil {
		return MembershipInfo{}, err
	}
	switch respType {
	case respMembership:
		info, err := decodeMembershipInfo(body)
		if err == nil {
			c.noteEpoch(info.View.Epoch)
		}
		return info, err
	case respError:
		return MembershipInfo{}, asRemoteError(body)
	default:
		return MembershipInfo{}, ErrBadFrame
	}
}

// AddServer asks the cluster to admit a new cache server (leader-forwarded
// on the broker side) and returns the resulting membership.
func (c *Client) AddServer(ctx context.Context, info membership.ServerInfo) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerAdd, membership.AppendServerInfo(nil, info))
}

// DrainServer starts decommissioning the cache server at addr.
func (c *Client) DrainServer(ctx context.Context, addr string) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerDrain, []byte(addr))
}

// RemoveServer retires the cache server at addr from the cluster.
func (c *Client) RemoveServer(ctx context.Context, addr string) (MembershipInfo, error) {
	return c.adminOp(ctx, opServerRemove, []byte(addr))
}

func (c *Client) adminOp(ctx context.Context, op uint8, body []byte) (MembershipInfo, error) {
	respType, respBody, err := c.do(ctx, op, body)
	if err != nil {
		return MembershipInfo{}, err
	}
	switch respType {
	case respMembership:
		info, err := decodeMembershipInfo(respBody)
		if err == nil {
			c.noteEpoch(info.View.Epoch)
		}
		return info, err
	case respError:
		return MembershipInfo{}, asRemoteError(respBody)
	default:
		return MembershipInfo{}, ErrBadFrame
	}
}

// Stats fetches the broker's counters.
func (c *Client) Stats(ctx context.Context) (BrokerStats, error) {
	respType, body, err := c.do(ctx, opBrokerStats, nil)
	if err != nil {
		return BrokerStats{}, err
	}
	switch respType {
	case respStats:
		return decodeBrokerStats(body)
	case respError:
		return BrokerStats{}, asRemoteError(body)
	default:
		return BrokerStats{}, ErrBadFrame
	}
}

// Close closes every pooled connection; pending requests fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, m := range c.conns {
		m.close()
	}
	return nil
}
