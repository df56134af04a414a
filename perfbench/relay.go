package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// relay is a byte-counting TCP proxy standing for one network link. It is
// labelled with the switch level the link crosses, so it counts bytes
// without parsing a frame: every byte through it, in either direction,
// crossed that level.
type relay struct {
	lvl    level
	peer   bool // a broker↔broker link
	target string
	ln     net.Listener
	bytes  atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newRelay listens on an ephemeral loopback port and forwards every
// connection to target.
func newRelay(target string, lvl level, peer bool) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{lvl: lvl, peer: peer, target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		if !r.track(in, out) {
			return
		}
		r.wg.Add(2)
		go r.pipe(out, in)
		go r.pipe(in, out)
	}
}

// track registers a connection pair for Close; it reports false (and
// closes both) once the relay is closed.
func (r *relay) track(in, out net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		in.Close()
		out.Close()
		return false
	}
	r.conns[in] = struct{}{}
	r.conns[out] = struct{}{}
	return true
}

// pipe copies src to dst, counting bytes, and closes both ends when either
// side stops so the peer goroutine exits too.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
}

// close stops accepting, drops every connection, and waits for the relay's
// goroutines to exit.
func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.ln.Close()
	r.wg.Wait()
}
