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
	done   chan struct{} // closed by Close: releases callers awaiting a dial
	// epoch is the highest membership epoch observed in read and write
	// response trailers — how a client notices the cluster's cache-server
	// set changed without polling.
	epoch atomic.Uint64
	// callTimeout bounds every roundTrip of a broker's link (dial, hello
	// and retry included); API calls are bounded by their callers' ctx.
	callTimeout time.Duration
	// dialing counts the pool's dials in flight, and failedAt is the
	// UnixNano time of the last failed dial or broken connection (0 once
	// a dial succeeds): the two halves of Busy.
	dialing  atomic.Int32
	failedAt atomic.Int64

	// tel mints trace contexts and records client-side op latency.
	tel       *telemetry.Node
	readHist  *telemetry.Histogram
	writeHist *telemetry.Histogram
}

// DefaultPoolSize is the connection pool size used when Dial or
// NewClient gets poolSize <= 0.
const DefaultPoolSize = 2

// dialTimeout bounds one dial: the TCP connect and the hello together.
const dialTimeout = 10 * time.Second

// linkCooldown is how long a Client reports itself Busy after a failed
// dial or a broken connection. Callers with somewhere else to go — a
// broker client's other brokers, a direct read's broker path — go there
// first; a cooling link still serves every request it is given.
const linkCooldown = time.Second

// Dial connects to a broker (or, for direct reads, a cache server) with
// poolSize multiplexed connections (DefaultPoolSize if <= 0). It is
// NewClient for a caller that wants a live link or none: on error the
// client is closed and nil returned.
func Dial(ctx context.Context, addr string, poolSize int) (*Client, error) {
	c, err := NewClient(ctx, addr, poolSize)
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NewClient returns a client for addr with poolSize multiplexed
// connections (DefaultPoolSize if <= 0). The first connection is
// established eagerly so hello failures surface at once; the rest are
// dialed lazily on first use. The client is returned even when that
// first dial fails — the failure is on record (Busy reports it) and a
// later request redials — so a caller that keeps a link across outages
// needs no second constructor. Close releases it either way.
func NewClient(ctx context.Context, addr string, poolSize int) (*Client, error) {
	c := newClient(addr, poolSize, telemetry.Default())
	return c, c.conns[0].connect(ctx)
}

// newClient returns a client for addr that dials nothing until its first
// request, with its instruments on tel.
func newClient(addr string, poolSize int, tel *telemetry.Node) *Client {
	if poolSize <= 0 {
		poolSize = DefaultPoolSize
	}
	c := &Client{addr: addr, done: make(chan struct{})}
	c.setTelemetry(tel)
	for i := 0; i < poolSize; i++ {
		c.conns = append(c.conns, &muxConn{client: c})
	}
	return c
}

// newLink returns a broker's link to a cache server or peer broker: a
// lazily dialed client whose every roundTrip is bounded by callTimeout.
func newLink(addr string, callTimeout time.Duration, tel *telemetry.Node) *Client {
	c := newClient(addr, serverPoolSize, tel)
	c.callTimeout = callTimeout
	return c
}

// setTelemetry puts the client's sampling and latency instruments on n;
// tests that must not share a node call it again with an isolated one.
func (c *Client) setTelemetry(n *telemetry.Node) {
	c.tel = n
	c.readHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "read")
	c.writeHist = n.Histogram("dynasore_client_op_seconds", "Client-observed end-to-end op latency.", "op", "write")
}

// Busy reports whether the client has a dial in flight or saw a dial
// fail or a connection break less than linkCooldown ago. It is advice,
// not a gate: a busy client still serves every request it is given,
// awaiting the dial in flight or dialing anew, so a caller with nowhere
// else to go calls it anyway. Broker links never ask.
func (c *Client) Busy() bool {
	return c.dialing.Load() > 0 || c.cooling()
}

// cooling reports whether the client failed less than linkCooldown ago.
// It reads the clock only when a failure is on record.
func (c *Client) cooling() bool {
	f := c.failedAt.Load()
	return f != 0 && time.Since(time.Unix(0, f)) < linkCooldown
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

	mu      sync.Mutex // guards conn, gen, pending, dial
	conn    net.Conn
	gen     uint64 // bumped on every (re)dial, detects stale failures
	pending map[uint64]chan wireResp
	dial    *dialCall // non-nil while a dial is in flight

	//dynalint:allow lockio the write mutex exists to keep concurrent frame writes from interleaving on the socket
	wmu    sync.Mutex // serializes frame writes
	nextID atomic.Uint64
}

// dialCall is one in-flight dial of a pooled connection, shared by every
// caller that finds the connection down while it runs. err is set before
// done is closed.
type dialCall struct {
	done chan struct{}
	err  error
}

// connect makes sure the connection is live. When it is down, the first
// caller starts a dial in a goroutine of its own, outside m.mu and bounded
// by dialTimeout alone, and every caller meanwhile awaits that one dial,
// each until its own ctx is done or the client closes. So a hung peer
// stalls no lock holder, and a caller that gives up leaves the dial to
// the callers still waiting.
func (m *muxConn) connect(ctx context.Context) error {
	m.mu.Lock()
	if m.conn != nil {
		m.mu.Unlock()
		return nil
	}
	if m.client.closed.Load() {
		m.mu.Unlock()
		return net.ErrClosed
	}
	d := m.dial
	if d == nil {
		d = &dialCall{done: make(chan struct{})}
		m.dial = d
		m.client.dialing.Add(1)
		go m.runDial(d)
	}
	m.mu.Unlock()
	select {
	case <-d.done:
		return d.err
	case <-m.client.done:
		return net.ErrClosed
	case <-ctx.Done():
		return fmt.Errorf("cluster: dial %s: %w", m.client.addr, ctx.Err())
	}
}

// runDial performs dial d and installs its connection, or closes it when
// the client was closed meanwhile. A failed dial goes on the client's
// record; a successful one clears it.
func (m *muxConn) runDial(d *dialCall) {
	c := m.client
	conn, err := c.dialConn()
	m.mu.Lock()
	m.dial = nil
	if err == nil && c.closed.Load() {
		conn.Close()
		err = net.ErrClosed
	}
	if err == nil {
		m.conn = conn
		m.gen++
		m.pending = make(map[uint64]chan wireResp)
		go m.readLoop(conn, m.gen)
	}
	d.err = err
	m.mu.Unlock()
	if err == nil {
		c.failedAt.Store(0)
	} else if !c.closed.Load() {
		c.failedAt.Store(time.Now().UnixNano())
	}
	c.dialing.Add(-1)
	close(d.done)
}

// dialConn opens one connection to the client's address and performs the
// hello, both under one dialTimeout deadline: a peer that accepts and
// never answers fails the dial instead of hanging it.
func (c *Client) dialConn() (net.Conn, error) {
	deadline := time.Now().Add(dialTimeout)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	conn.SetDeadline(deadline)
	if err := clientHello(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello %s: %w", c.addr, err)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
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
	if !m.client.closed.Load() {
		m.client.failedAt.Store(time.Now().UnixNano())
	}
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
	err := writeFrame(conn, msgType, id, tc, body)
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

// answerBody reads the outcome of one round trip: respOK yields its body,
// respError the remote error it carries, and any other type ErrBadFrame.
// It is the one place a client looks at an answer's type; the body's
// layout is fixed by the request's op and checked by that op's decoder.
func answerBody(msgType uint8, body []byte, err error) ([]byte, error) {
	switch {
	case err != nil:
		return nil, err
	case msgType == respOK:
		return body, nil
	case msgType == respError:
		return nil, asRemoteError(body)
	default:
		return nil, ErrBadFrame
	}
}

// do performs one untraced round trip and returns the answer's body.
func (c *Client) do(ctx context.Context, msgType uint8, body []byte) ([]byte, error) {
	return c.doTraced(ctx, msgType, body, telemetry.TraceContext{})
}

// doTraced performs one round trip whose frame carries tc and returns the
// answer's body.
func (c *Client) doTraced(ctx context.Context, msgType uint8, body []byte, tc telemetry.TraceContext) ([]byte, error) {
	if c.closed.Load() {
		return nil, net.ErrClosed
	}
	return answerBody(c.pick().do(ctx, msgType, body, tc))
}

// roundTrip performs one round trip on a broker's link to a cache server
// or peer broker, bounded by the link's callTimeout. A failed dial is
// reported at once; a connection that breaks under the request is torn
// down and the request retried once on a fresh dial, so a server
// restarted since the last request is never reported unreachable. Only
// idempotent ops go this way — puts merge by sequence number, sync writes
// apply idempotently, pulls and probes are reads; API requests are never
// resent. A request that was answered, with an error or not, is not
// retried. A retired (closed) link reports ErrStaleEpoch: the operation
// acted under a membership table the broker has since replaced.
func (c *Client) roundTrip(msgType uint8, body []byte, tc telemetry.TraceContext) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.callTimeout)
	defer cancel()
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
	return answerBody(respType, respBody, err)
}

// serverCallTimeout bounds every broker → cache-server call (dial and
// retry included), so a server that accepts connections but never answers
// fails the write or read it stalls — and lets Broker.Close return —
// instead of blocking it forever.
const serverCallTimeout = 5 * time.Second

// getViews fetches the views of users from a cache server in one frame:
// views[i] and wires[i] are the i-th user's view and the slice of the
// answer it was parsed from, or a zero View and a nil wire on a miss. A
// sampled tc makes the cache server's span join the trace.
func (c *Client) getViews(users []uint32, tc telemetry.TraceContext) ([]View, [][]byte, error) {
	req := make([]byte, 0, 4*len(users))
	for _, u := range users {
		req = binary.LittleEndian.AppendUint32(req, u)
	}
	body, err := c.roundTrip(opGetView, req, tc)
	if err != nil {
		return nil, nil, err
	}
	views, wires, err := decodeGetViews(body)
	if err == nil && len(views) != len(users) {
		err = fmt.Errorf("%w: %d views for %d users", ErrBadFrame, len(views), len(users))
	}
	return views, wires, err
}

// getView fetches one user's view from a cache server; ok is false on a
// cache miss.
func (c *Client) getView(user uint32, tc telemetry.TraceContext) (View, bool, error) {
	views, wires, err := c.getViews([]uint32{user}, tc)
	if err != nil {
		return View{}, false, err
	}
	return views[0], wires[0] != nil, nil
}

// putView merges a view into a cache server's copy, stamped with the
// direct-read fencing tokens — the broker's membership epoch and the
// user's placement version — and capped at limit events. A sampled tc
// makes the server's span join the trace.
func (c *Client) putView(user uint32, v View, epoch, placement uint64, limit int, tc telemetry.TraceContext) error {
	body := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+viewLen(v)+putMetaLen), user)
	body = encodeView(body, v)
	body = appendPutMeta(body, epoch, placement, limit)
	_, err := c.roundTrip(opPutView, body, tc)
	return err
}

// pushEpoch teaches a cache server the broker's current membership epoch,
// so direct reads fence correctly on servers that receive no puts.
func (c *Client) pushEpoch(epoch uint64) error {
	_, err := c.roundTrip(opEpochPush, binary.LittleEndian.AppendUint64(nil, epoch), telemetry.TraceContext{})
	return err
}

// deleteView removes a replica from a cache server.
func (c *Client) deleteView(user uint32) error {
	_, err := c.roundTrip(opDeleteView, binary.LittleEndian.AppendUint32(nil, user), telemetry.TraceContext{})
	return err
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
	respBody, err := c.doTraced(ctx, opRead, body, sp.Context())
	if err != nil {
		return nil, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.Stage("decode")
		sp.End()
		c.readHist.Observe(time.Since(start))
	}()
	views, epoch, err := decodeReadResponse(respBody)
	if err != nil {
		return nil, err
	}
	if len(views) != len(targets) {
		return nil, fmt.Errorf("%w: %d views for %d targets", ErrBadFrame, len(views), len(targets))
	}
	c.noteEpoch(epoch)
	return views, nil
}

// Write publishes an event produced by user and returns its sequence number.
func (c *Client) Write(ctx context.Context, user uint32, payload []byte) (uint64, error) {
	start := time.Now()
	sp := c.tel.StartSpan(c.tel.Sample(), "client.write")
	body := binary.LittleEndian.AppendUint32(nil, user)
	body = append(body, payload...)
	sp.Stage("encode")
	respBody, err := c.doTraced(ctx, opWrite, body, sp.Context())
	if err != nil {
		return 0, err
	}
	sp.Stage("rpc")
	defer func() {
		sp.End()
		c.writeHist.Observe(time.Since(start))
	}()
	if len(respBody) < 8 {
		return 0, ErrBadFrame
	}
	epoch, err := decodeEpochTrailer(respBody[8:])
	if err != nil {
		return 0, err
	}
	c.noteEpoch(epoch)
	return binary.LittleEndian.Uint64(respBody), nil
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
		respBody, err := c.do(ctx, opLeaseGet, body)
		if err != nil {
			return nil, err
		}
		ls, err := decodeLeaseGrants(respBody)
		if err != nil {
			return nil, err
		}
		for _, l := range ls {
			c.noteEpoch(l.Epoch)
		}
		out = append(out, ls...)
		users = users[n:]
	}
	return out, nil
}

// directGet performs one batched, fenced direct read against a cache
// server: one answer per request, in order (see directAnswer). Callers
// keep the batch within MaxBatch.
func (c *Client) directGet(ctx context.Context, reqs []directGetReq) ([]directAnswer, error) {
	respBody, err := c.do(ctx, opDirectGet, encodeDirectGet(reqs))
	if err != nil {
		return nil, err
	}
	answers, epoch, err := decodeDirectAnswers(respBody)
	if err != nil {
		return nil, err
	}
	c.noteEpoch(epoch)
	if len(answers) != len(reqs) {
		return nil, fmt.Errorf("%w: %d direct answers for %d users", ErrBadFrame, len(answers), len(reqs))
	}
	return answers, nil
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
	return c.adminOp(ctx, opMembershipGet, nil)
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

// adminOp runs one request answered with the membership view: a fetch or
// a membership change.
func (c *Client) adminOp(ctx context.Context, op uint8, body []byte) (MembershipInfo, error) {
	respBody, err := c.do(ctx, op, body)
	if err != nil {
		return MembershipInfo{}, err
	}
	info, err := decodeMembershipInfo(respBody)
	if err == nil {
		c.noteEpoch(info.View.Epoch)
	}
	return info, err
}

// Stats fetches the broker's counters.
func (c *Client) Stats(ctx context.Context) (BrokerStats, error) {
	body, err := c.do(ctx, opBrokerStats, nil)
	if err != nil {
		return BrokerStats{}, err
	}
	return decodeBrokerStats(body)
}

// Close closes every pooled connection; pending requests fail, those
// awaiting a dial included. It never waits for a dial: a connection a
// pending dial yields later is closed as it arrives.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.done)
	for _, m := range c.conns {
		m.close()
	}
	return nil
}
