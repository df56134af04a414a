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

	srv *listener

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
	s := &Server{}
	s.tel = telemetry.Default()
	s.getHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "get")
	s.putHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "put")
	s.directHist = s.tel.Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "direct_get")
	for i := range s.shards {
		s.shards[i].views = make(map[uint32]cachedView)
	}
	s.srv = serve(ln, s.handle)
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

// install merges a put into user's cached view: the union by sequence
// number of the two, capped at the putting broker's limit, at the higher
// version (see mergeViews). Brokers whose stores differ — one has not yet
// applied a peer's event — put views that each lack the other's event,
// and the merge keeps both whatever order the puts land in. The stored
// placement version only ratchets up — a racing put carrying an older
// token must not lower the fence.
func (s *Server) install(user uint32, v View, placement uint64, limit int) {
	sh := s.shardOf(user)
	sh.mu.Lock()
	cur := sh.views[user]
	sh.views[user] = cachedView{View: mergeViews(cur.View, v, limit), placement: max(placement, cur.placement)}
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
func (s *Server) Addr() string { return s.srv.ln.Addr().String() }

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
		epoch, placement, limit, err := decodePutMeta(rest)
		if err != nil {
			return respError, errorBody(err.Error())
		}
		sp := s.tel.StartSpan(tc, "server.put")
		s.noteEpoch(epoch)
		s.install(user, v, placement, limit)
		sp.Stage("install")
		sp.End()
		s.puts.Add(1)
		s.putHist.Observe(time.Since(start))
		return respOK, nil
	case opDirectGet:
		reqs, err := decodeDirectGet(body)
		if err != nil {
			return respError, errorBody("bad direct get")
		}
		start := time.Now()
		se := s.epoch.Load()
		answers := make([]directAnswer, len(reqs))
		for i, r := range reqs {
			answers[i] = s.directGet(r, se)
		}
		resp := encodeDirectAnswers(answers, se)
		s.directHist.Observe(time.Since(start))
		return respDirect, resp
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
	default:
		return respError, errorBody("unknown op")
	}
}

// directGet answers one user of a batched direct read against the
// server's epoch se, counting the view served or the refusal.
func (s *Server) directGet(r directGetReq, se uint64) directAnswer {
	if se == 0 || r.epoch != se {
		// Either this server cannot prove any lease current (it has not
		// learned its epoch yet) or the client's membership view diverged
		// from the server's — fence rather than risk a read against a
		// superseded placement.
		s.directStale.Add(1)
		return directAnswer{status: respStaleRoute, epoch: se}
	}
	cv, ok := s.lookup(r.user)
	if !ok {
		s.directStale.Add(1)
		return directAnswer{status: respNotHere}
	}
	if cv.placement > r.placement {
		// The view was re-placed after the lease was minted; the client's
		// replica set may name servers the broker already deleted from.
		s.directStale.Add(1)
		return directAnswer{status: respStaleRoute, epoch: se, placement: cv.placement}
	}
	s.directReads.Add(1)
	return directAnswer{status: respView, view: cv.View}
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
func (s *Server) Close() error { return s.srv.close() }

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
	// direct-read fast path; DirectStale counts users of direct reads
	// the server refused (stale epoch, stale placement version, or view
	// not here) — each refusal sent the client to another replica or back
	// to the broker. Both count users, not batched frames.
	DirectReads int64
	DirectStale int64
}
