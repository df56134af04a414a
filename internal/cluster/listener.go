package cluster

import (
	"net"
	"sync"
)

// listener is the accept side every node shares: brokers and cache servers
// alike serve each accepted connection with serveFrames on its own
// goroutine, and close the same way.
type listener struct {
	ln     net.Listener
	handle handlerFunc
	conns  sync.WaitGroup // the accept loop plus one per open connection

	mu     sync.Mutex
	active map[net.Conn]struct{}
	closed bool
}

// serve starts accepting connections on ln, each served by handle.
func serve(ln net.Listener, handle handlerFunc) *listener {
	l := &listener{ln: ln, handle: handle, active: make(map[net.Conn]struct{})}
	l.conns.Add(1)
	go l.acceptLoop()
	return l
}

func (l *listener) acceptLoop() {
	defer l.conns.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !l.track(conn) {
			conn.Close()
			continue
		}
		l.conns.Add(1)
		go func() {
			defer l.conns.Done()
			defer l.untrack(conn)
			serveFrames(conn, l.handle)
		}()
	}
}

// track registers an accepted connection, or reports false once close has
// begun: a connection accepted while close runs would otherwise miss the
// sweep and keep close waiting on a client that never hangs up.
func (l *listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.active[conn] = struct{}{}
	return true
}

func (l *listener) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.active, conn)
	l.mu.Unlock()
	conn.Close()
}

// close stops accepting, drops every open connection, and waits for the
// connection handlers to exit. Only the first call does anything.
func (l *listener) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.ln.Close()
	for conn := range l.active {
		conn.Close()
	}
	l.mu.Unlock()
	l.conns.Wait()
	return err
}
