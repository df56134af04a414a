package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynasore/internal/telemetry"
)

// serverShardCount is the number of independently locked view-map shards a
// cache server keeps. Concurrent requests for different users proceed in
// parallel instead of serializing on one mutex; a power of two keeps the
// shard selection a mask.
const serverShardCount = 32

// cachedView pairs a cached view with the placement version the broker
// stamped on its put — the per-user fencing token direct reads verify.
type cachedView struct {
	View
	placement uint64
}

// serverShard is one lock-striped slice of the view store. The padding keeps
// neighbouring shards' locks off the same cache line, which otherwise
// reintroduces the very contention sharding is meant to remove.
type serverShard struct {
	mu    sync.RWMutex          // 24 bytes
	views map[uint32]cachedView // 8 bytes
	_     [32]byte              // pad the struct to one full 64-byte cache line
}

// Server is one in-memory cache node: it stores view replicas keyed by user
// and serves gets/puts from brokers. Views live only in memory — durability
// is the persistent store's job, exactly as in the paper. Requests
// multiplex concurrently over each connection, and the view map is
// hash-sharded so they do not serialize on a single lock.
type Server struct {
	shards [serverShardCount]serverShard

	ln     net.Listener
	conns  sync.WaitGroup
	connMu sync.Mutex
	active map[net.Conn]struct{}
	closed atomic.Bool

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	// epoch is the highest membership epoch this server has learned — from
	// broker epoch pushes and from put metadata. Zero (no broker
	// contact yet, e.g. right after a restart) fences every direct read:
	// the server cannot prove any lease current, so it stale-routes until
	// a broker teaches it the epoch.
	epoch       atomic.Uint64
	directReads atomic.Int64
	directStale atomic.Int64

	// tel records per-op latency and hosts the spans sampled requests
	// leave behind (trace contexts arrive in the request frames).
	tel        *telemetry.Node
	getHist    *telemetry.Histogram
	putHist    *telemetry.Histogram
	directHist *telemetry.Histogram
}

// shardOf selects the lock stripe holding user's view. The multiplicative
// hash spreads sequential user IDs (the common allocation pattern) across
// shards.
func (s *Server) shardOf(user uint32) *serverShard {
	return &s.shards[(user*2654435761)>>27&(serverShardCount-1)]
}

// NewServer starts a cache server listening on addr (use "127.0.0.1:0" for
// an ephemeral port).
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	s := &Server{ln: ln, active: make(map[net.Conn]struct{})}
	s.tel = telemetry.Default()
	s.getHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "get")
	s.putHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "put")
	s.directHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "direct_get")
	for i := range s.shards {
		s.shards[i].views = make(map[uint32]cachedView)
	}
	s.conns.Add(1)
	go s.acceptLoop()
	return s, nil
}

// lookup returns user's cached view, if present.
func (s *Server) lookup(user uint32) (cachedView, bool) {
	sh := s.shardOf(user)
	sh.mu.RLock()
	v, ok := sh.views[user]
	sh.mu.RUnlock()
	return v, ok
}

// install stores a view unless a newer version is already cached: an
// out-of-order put of an older version must not clobber a newer view. The
// stored placement version only ratchets up — a racing put carrying an
// older token must not lower the fence.
func (s *Server) install(user uint32, v View, placement uint64) {
	sh := s.shardOf(user)
	sh.mu.Lock()
	if cur, ok := sh.views[user]; !ok || v.Version >= cur.Version {
		if placement < cur.placement {
			placement = cur.placement
		}
		sh.views[user] = cachedView{View: v, placement: placement}
	}
	sh.mu.Unlock()
}

// noteEpoch ratchets the server's known membership epoch up to e.
func (s *Server) noteEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// drop removes user's view from the cache.
func (s *Server) drop(user uint32) {
	sh := s.shardOf(user)
	sh.mu.Lock()
	delete(sh.views, user)
	sh.mu.Unlock()
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.conns.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		s.active[conn] = struct{}{}
		s.connMu.Unlock()
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.active, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			serveFrames(conn, s.handle)
		}()
	}
}

func (s *Server) handle(tc telemetry.TraceContext, msgType uint8, body []byte) (uint8, []byte) {
	switch msgType {
	case opGetView:
		if len(body) < 4 {
			return respError, errorBody("short get")
		}
		start := time.Now()
		user := binary.LittleEndian.Uint32(body[0:4])
		sp := s.tel.StartSpan(tc, "server.get")
		v, ok := s.lookup(user)
		sp.Stage("lookup")
		sp.End()
		s.getHist.Observe(time.Since(start))
		if !ok {
			s.misses.Add(1)
			return respMiss, nil
		}
		s.hits.Add(1)
		return respView, encodeView(nil, v.View)
	case opPutView:
		if len(body) < 4 {
			return respError, errorBody("short put")
		}
		start := time.Now()
		user := binary.LittleEndian.Uint32(body[0:4])
		v, rest, err := decodeView(body[4:])
		if err != nil {
			return respError, errorBody(err.Error())
		}
		// The fencing metadata follows the view; the epoch piggybacking on
		// every put keeps a busy server fenced correctly even if it missed
		// an explicit epoch push.
		epoch, placement, err := decodePutMeta(rest)
		if err != nil {
			return respError, errorBody(err.Error())
		}
		sp := s.tel.StartSpan(tc, "server.put")
		s.noteEpoch(epoch)
		s.install(user, v, placement)
		sp.Stage("install")
		sp.End()
		s.puts.Add(1)
		s.putHist.Observe(time.Since(start))
		return respOK, nil
	case opDirectGet:
		user, epoch, placement, err := decodeDirectGet(body)
		if err != nil {
			return respError, errorBody("short direct get")
		}
		start := time.Now()
		defer func() { s.directHist.Observe(time.Since(start)) }()
		se := s.epoch.Load()
		if se == 0 || epoch != se {
			// Either this server cannot prove any lease current (it has
			// not learned its epoch yet) or the client's membership view
			// diverged from the server's — fence rather than risk a read
			// against a superseded placement.
			s.directStale.Add(1)
			return respStaleRoute, appendStaleRoute(nil, se, 0)
		}
		cv, ok := s.lookup(user)
		if !ok {
			s.directStale.Add(1)
			return respNotHere, nil
		}
		if cv.placement > placement {
			// The view was re-placed after the lease was minted; the
			// client's replica set may name servers the broker already
			// deleted from.
			s.directStale.Add(1)
			return respStaleRoute, appendStaleRoute(nil, se, cv.placement)
		}
		s.directReads.Add(1)
		return respView, appendEpochTrailer(encodeView(nil, cv.View), se)
	case opEpochPush:
		if len(body) < 8 {
			return respError, errorBody("short epoch push")
		}
		s.noteEpoch(binary.LittleEndian.Uint64(body[0:8]))
		return respOK, nil
	case opDeleteView:
		if len(body) < 4 {
			return respError, errorBody("short delete")
		}
		user := binary.LittleEndian.Uint32(body[0:4])
		s.drop(user)
		return respOK, nil
	case opServerStats:
		return respStats, appendServerStats(nil, s.Stats())
	default:
		return respError, errorBody("unknown op")
	}
}

// NumViews returns how many views the server currently holds.
func (s *Server) NumViews() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.views)
		sh.mu.RUnlock()
	}
	return n
}

// Close stops the listener, drops every open connection, and waits for the
// connection handlers to exit.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.active {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Wait()
	return err
}

// Epoch returns the highest membership epoch the server has learned from
// brokers (0 until the first put or epoch push reaches it).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Views:       s.NumViews(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		DirectReads: s.directReads.Load(),
		DirectStale: s.directStale.Load(),
	}
}

// ServerStats summarizes one cache server.
type ServerStats struct {
	Views  int
	Hits   int64
	Misses int64
	Puts   int64
	// DirectReads counts views served straight to clients over the
	// direct-read fast path; DirectStale counts direct reads the server
	// refused (stale epoch, stale placement version, or view not here) —
	// each refusal sent the client back to the broker.
	DirectReads int64
	DirectStale int64
}

// serverPoolSize is how many connections a broker keeps per cache server,
// so concurrent requests fan out to the backend in parallel.
const serverPoolSize = 4

// serverConn is a pooled set of request/response connections to one cache
// server or peer broker: up to serverPoolSize requests proceed in
// parallel, each holding one connection for its round trip. A non-zero
// timeout bounds dialing, the hello and every round trip — peer-broker
// connections use one so a hung peer can never stall the liveness/election
// loop that exists to detect it.
type serverConn struct {
	addr    string
	timeout time.Duration
	sem     chan struct{}

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

func newServerConn(addr string) *serverConn {
	return &serverConn{addr: addr, sem: make(chan struct{}, serverPoolSize)}
}

func newServerConnTimeout(addr string, timeout time.Duration) *serverConn {
	return &serverConn{addr: addr, timeout: timeout, sem: make(chan struct{}, serverPoolSize)}
}

// get pops an idle connection or dials a fresh one.
func (c *serverConn) get() (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return c.dial()
}

// dial opens a fresh connection and performs the hello on it.
func (c *serverConn) dial() (net.Conn, error) {
	var conn net.Conn
	var err error
	if c.timeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.timeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	if c.timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := clientHello(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello %s: %w", c.addr, err)
	}
	return conn, nil
}

// drainIdle closes every pooled connection: one broken connection to a
// server usually means the rest (dialed around the same time) are stale
// too, e.g. after the server restarted.
func (c *serverConn) drainIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
}

// put returns a healthy connection to the pool.
func (c *serverConn) put(conn net.Conn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= serverPoolSize {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}

// roundTrip sends one untraced request and reads its response.
func (c *serverConn) roundTrip(msgType uint8, body []byte) (uint8, []byte, error) {
	return c.roundTripTraced(msgType, body, telemetry.TraceContext{})
}

// roundTripTraced sends one request carrying tc and reads one response,
// retrying once on a broken connection. A pooled connection may have gone
// stale, so a failure drains the pool and the retry always dials fresh — a
// reachable server is never reported unreachable just because the pool was
// full of dead connections. A connection carries one request at a time, so
// every request uses ID 1.
func (c *serverConn) roundTripTraced(msgType uint8, body []byte, tc telemetry.TraceContext) (uint8, []byte, error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	for attempt := 0; attempt < 2; attempt++ {
		var conn net.Conn
		var err error
		if attempt == 0 {
			conn, err = c.get()
		} else {
			conn, err = c.dial()
		}
		if err != nil {
			return 0, nil, err
		}
		if c.timeout > 0 {
			conn.SetDeadline(time.Now().Add(c.timeout))
		}
		if err := writeFrame(conn, frame{msgType: msgType, id: 1, tc: tc, body: body}); err != nil {
			conn.Close()
			c.drainIdle()
			continue
		}
		resp, err := readFrame(conn)
		if err != nil {
			conn.Close()
			c.drainIdle()
			continue
		}
		if c.timeout > 0 {
			conn.SetDeadline(time.Time{})
		}
		c.put(conn)
		return resp.msgType, resp.body, nil
	}
	return 0, nil, fmt.Errorf("cluster: %s unreachable after retry", c.addr)
}

func (c *serverConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
}

// getView fetches a view from the server; ok is false on a cache miss. A
// sampled tc makes the cache server's span join the trace.
func (c *serverConn) getView(user uint32, tc telemetry.TraceContext) (View, bool, error) {
	respType, respBody, err := c.roundTripTraced(opGetView, binary.LittleEndian.AppendUint32(nil, user), tc)
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

// putView installs a view replica on the server, stamped with the
// direct-read fencing tokens: the broker's membership epoch and the user's
// placement version. A sampled tc makes the server's span join the trace.
func (c *serverConn) putView(user uint32, v View, epoch, placement uint64, tc telemetry.TraceContext) error {
	body := binary.LittleEndian.AppendUint32(nil, user)
	body = encodeView(body, v)
	body = appendPutMeta(body, epoch, placement)
	return expectOK(c.roundTripTraced(opPutView, body, tc))
}

// pushEpoch teaches the server the broker's current membership epoch, so
// direct reads fence correctly on servers that receive no puts.
func (c *serverConn) pushEpoch(epoch uint64) error {
	return expectOK(c.roundTrip(opEpochPush, binary.LittleEndian.AppendUint64(nil, epoch)))
}

// deleteView removes a replica from the server.
func (c *serverConn) deleteView(user uint32) error {
	return expectOK(c.roundTrip(opDeleteView, binary.LittleEndian.AppendUint32(nil, user)))
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

// stats fetches server statistics.
func (c *serverConn) stats() (ServerStats, error) {
	respType, body, err := c.roundTrip(opServerStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	if respType != respStats {
		return ServerStats{}, ErrBadFrame
	}
	return decodeServerStats(body)
}
