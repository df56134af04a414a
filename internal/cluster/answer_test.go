package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
)

// retypedConn rewrites the type of every respOK frame header written
// through it, so a server built on serveFrames answers with a frame type
// serveFrames itself never writes. Without a writeBuffers method, a frame
// reaches it as two writes: the header, then the body.
type retypedConn struct {
	net.Conn
	to uint8
}

func (c retypedConn) Write(p []byte) (int, error) {
	if len(p) >= frameHeaderLen && p[4] == respOK {
		p = append([]byte(nil), p...)
		p[4] = c.to
	}
	return c.Conn.Write(p)
}

// TestAnswerOfUnknownTypeIsBadFrame: an answer is respOK or respError;
// any other frame type, the retired per-op codes and the direct-read
// statuses included, fails the call with ErrBadFrame on every client path.
func TestAnswerOfUnknownTypeIsBadFrame(t *testing.T) {
	for _, typ := range []uint8{respView, 11, respHello, respStaleRoute} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go serveFrames(retypedConn{conn, typ}, func(telemetry.TraceContext, uint8, []byte) ([][]byte, error) {
					return [][]byte{[]byte("body")}, nil
				})
			}
		}()
		c := dialTest(t, ln.Addr().String())
		if body, err := c.do(context.Background(), opBrokerStats, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("type %d: do = %q, %v; want ErrBadFrame", typ, body, err)
		}
		link := newLink(ln.Addr().String(), 5*time.Second, telemetry.Default())
		if _, _, err := link.getView(1, telemetry.TraceContext{}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("type %d: getView err = %v, want ErrBadFrame", typ, err)
		}
		link.Close()
		ln.Close()
	}
}

// TestEmptyAnswersRoundTrip: a cache-server miss is respOK with an empty
// body, and a broker's opViewPull of a user it never stored answers with
// an encoded empty view, never an empty body.
func TestEmptyAnswersRoundTrip(t *testing.T) {
	b, servers, _ := testCluster(t, 1, nil)
	link := newLink(servers[0].Addr(), serverCallTimeout, telemetry.Default())
	defer link.Close()
	const user = 4242
	if v, ok, err := link.getView(user, telemetry.TraceContext{}); err != nil || ok || len(v.Events) != 0 {
		t.Fatalf("miss: view %+v, ok %v, err %v; want an empty miss", v, ok, err)
	}
	if err := link.putView(user, viewOf(3), 1, 0, 64, telemetry.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := link.getView(user, telemetry.TraceContext{}); err != nil || !ok || v.Version != 3 {
		t.Fatalf("hit: view %+v, ok %v, err %v; want version 3", v, ok, err)
	}

	peer := newLink(b.Addr(), serverCallTimeout, telemetry.Default())
	defer peer.Close()
	body, err := peer.roundTrip(opViewPull, binary.LittleEndian.AppendUint32(nil, user), telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	v, rest, err := decodeView(body)
	if err != nil || len(rest) != 0 || v.Version != 0 || len(v.Events) != 0 {
		t.Fatalf("view pull of an empty store: %+v (%d bytes left), err %v; want the empty view", v, len(rest), err)
	}
}

// TestAdminErrorsRelayedThroughFollower: an admin request sent to a
// follower is forwarded to the leader, and a leader error reaches the
// client with its sentinel and one "remote error" prefix, not two.
func TestAdminErrorsRelayedThroughFollower(t *testing.T) {
	brokers, servers := testBrokerCluster(t, 2, 2, nil)
	waitFor(t, 5*time.Second, "follower sees the leader alive", func() bool {
		return brokers[1].Leader() == 0 && brokers[1].peers[0].alive.Load()
	})
	ctx := context.Background()
	follower := dialTest(t, brokers[1].Addr())

	if _, err := follower.DrainServer(ctx, servers[0].Addr()); err != nil {
		t.Fatalf("drain via follower: %v", err)
	}
	if got := brokers[0].Membership().View.Servers[0].State; got != membership.StateDraining {
		t.Fatalf("leader's server 0 is %v, want draining: the drain was not forwarded", got)
	}
	for _, c := range []struct {
		what     string
		sentinel error
		call     func() error
	}{
		{"drain of the last active server", membership.ErrLastActive, func() error {
			_, err := follower.DrainServer(ctx, servers[1].Addr())
			return err
		}},
		{"remove of an unknown server", membership.ErrUnknownServer, func() error {
			_, err := follower.RemoveServer(ctx, "127.0.0.1:1")
			return err
		}},
	} {
		err := c.call()
		if !errors.Is(err, c.sentinel) || !errors.Is(err, ErrRemote) {
			t.Errorf("%s: err = %v, want %v from the remote", c.what, err, c.sentinel)
			continue
		}
		if n := strings.Count(err.Error(), "remote error"); n != 1 {
			t.Errorf("%s: %q names the remote %d times, want once", c.what, err, n)
		}
	}
}
