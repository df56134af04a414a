package cluster

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestCloseWhileDialing pins that Close returns while clients keep
// dialing: a connection accepted as Close runs must be dropped at once,
// not left waiting for a hello from a client that never hangs up.
func TestCloseWhileDialing(t *testing.T) {
	const rounds, dialers = 300, 4
	for round := 0; round < rounds; round++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr()
		var (
			mu   sync.Mutex
			held []net.Conn
			wg   sync.WaitGroup
		)
		stop := make(chan struct{})
		for g := 0; g < dialers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return // the listener is closed
					}
					mu.Lock()
					held = append(held, c)
					mu.Unlock()
				}
			}()
		}
		// Close only once the dialers are in full swing, so accepts race it.
		for dialed := 0; dialed < 8; {
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			dialed = len(held)
			mu.Unlock()
		}
		done := make(chan error, 1)
		go func() { done <- s.Close() }()
		hung := false
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			hung = true
		}
		close(stop)
		wg.Wait()
		for _, c := range held {
			c.Close()
		}
		if hung {
			<-done
			t.Fatalf("round %d: Close blocked for more than 2s while clients held %d connections", round, len(held))
		}
	}
}
