package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/wal"
)

// --- frame-level edge cases ---

// sampledTC is a trace context that makes writeFrame set traceFlag.
var sampledTC = telemetry.TraceContext{TraceID: 0xA1B2C3D4E5F60718, SpanID: 0x1122334455667788, Flags: telemetry.FlagSampled}

func TestReadFrameTruncated(t *testing.T) {
	for _, tc := range []telemetry.TraceContext{{}, sampledTC} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{msgType: opRead, id: 3, tc: tc, body: []byte("abcdef")}); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 1; cut < len(full); cut++ {
			if _, err := readFrame(bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("sampled=%v: truncated frame of %d/%d bytes accepted", tc.Sampled(), cut, len(full))
			}
		}
	}
}

func TestReadFrameZeroAndOversize(t *testing.T) {
	for _, size := range []uint32{0, maxFrame + 1, 0xFFFFFFFF} {
		hdr := binary.LittleEndian.AppendUint32(nil, size)
		hdr = append(hdr, opRead)
		_, err := readFrame(bytes.NewReader(hdr))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("size %d: err = %v, want ErrFrameTooLarge", size, err)
		}
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	// The length field counts type, request ID, the trace context when
	// present, and the body; maxFrame bounds all of it.
	if err := writeFrame(io.Discard, frame{msgType: opWrite, id: 1, body: make([]byte, maxFrame-8)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := writeFrame(io.Discard, frame{msgType: opWrite, id: 1, body: make([]byte, maxFrame-9)}); err != nil {
		t.Errorf("largest untraced frame: %v", err)
	}
	traced := frame{msgType: opWrite, id: 1, tc: sampledTC, body: make([]byte, maxFrame-9-telemetry.TraceContextLen+1)}
	if err := writeFrame(io.Discard, traced); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("traced err = %v, want ErrFrameTooLarge", err)
	}
	// Op codes stay below traceFlag; a type byte that would collide with
	// it is refused rather than sent as a traced frame.
	if err := writeFrame(io.Discard, frame{msgType: traceFlag | opRead}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("flagged op code: err = %v, want ErrBadFrame", err)
	}
}

func TestFrameV2RoundTrip(t *testing.T) {
	for _, tc := range []telemetry.TraceContext{{}, sampledTC} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{msgType: respRead, id: 0xDEADBEEFCAFE, tc: tc, body: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
		// An unsampled frame carries no trace bytes at all.
		want := frameHeaderLen + len("payload")
		if tc.Sampled() {
			want += telemetry.TraceContextLen
		}
		if buf.Len() != want {
			t.Errorf("sampled=%v: frame is %d bytes, want %d", tc.Sampled(), buf.Len(), want)
		}
		f, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.msgType != respRead || f.id != 0xDEADBEEFCAFE || f.tc != tc || string(f.body) != "payload" {
			t.Errorf("round trip = %+v", f)
		}
	}
}

func TestReadFrameV2Undersized(t *testing.T) {
	// A frame must hold at least type + request ID (9 bytes).
	hdr := binary.LittleEndian.AppendUint32(nil, 5)
	hdr = append(hdr, opRead, 0, 0, 0, 0)
	if _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	// A traced frame must also hold its 17-byte context, and the context
	// it declares must be sampled.
	short := binary.LittleEndian.AppendUint32(nil, 9+telemetry.TraceContextLen-1)
	short = append(short, opRead|traceFlag)
	short = append(short, make([]byte, 8+telemetry.TraceContextLen-1)...)
	if _, err := readFrame(bytes.NewReader(short)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short traced frame: err = %v, want ErrBadFrame", err)
	}
	unsampled := binary.LittleEndian.AppendUint32(nil, 9+telemetry.TraceContextLen)
	unsampled = append(unsampled, opRead|traceFlag)
	unsampled = append(unsampled, make([]byte, 8+telemetry.TraceContextLen)...)
	if _, err := readFrame(bytes.NewReader(unsampled)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("flagged unsampled context: err = %v, want ErrBadFrame", err)
	}
}

func TestParseHello(t *testing.T) {
	hello := func(version byte) []byte { return append(helloMagic[:], version) }
	if err := parseHello(hello(protoVersion)); err != nil {
		t.Errorf("parseHello(current) = %v", err)
	}
	// Exactly one version is spoken: every other one, older (the previous
	// version included) or newer, is refused.
	for v := 0; v < 256; v++ {
		if v == protoVersion {
			continue
		}
		if err := parseHello(hello(byte(v))); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
	if err := parseHello([]byte("XXXX\x07")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad magic: err = %v, want ErrBadFrame", err)
	}
	if err := parseHello([]byte{'D', 'S'}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello: err = %v, want ErrBadFrame", err)
	}
}

func TestReadRequestCounts(t *testing.T) {
	// The uint32 count carries more targets than a uint16 could.
	big := make([]uint32, 70000)
	body, err := encodeReadRequest(big)
	if err != nil {
		t.Fatalf("70000 targets: %v", err)
	}
	targets, err := decodeReadRequest(body)
	if err != nil || len(targets) != 70000 {
		t.Fatalf("decode = %d targets, %v", len(targets), err)
	}
	// A request that cannot fit one frame is refused, not truncated.
	if _, err := encodeReadRequest(make([]uint32, maxFrame/4)); !errors.Is(err, ErrTooManyTargets) {
		t.Errorf("%d targets: err = %v, want ErrTooManyTargets", maxFrame/4, err)
	}
	// Truncated and short request bodies are rejected.
	small, err := encodeReadRequest([]uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeReadRequest(small[:len(small)-2]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated request: err = %v, want ErrBadFrame", err)
	}
	if _, err := decodeReadRequest([]byte{9, 0, 0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short request: err = %v, want ErrBadFrame", err)
	}
}

// --- live-connection protocol behavior ---

func TestUnknownMessageTypeGetsError(t *testing.T) {
	_, _, c := testCluster(t, 1, nil)
	respType, body, err := c.do(context.Background(), traceFlag-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if respType != respError {
		t.Errorf("respType = %d (%q), want respError", respType, body)
	}
}

// rawHello dials addr, sends one hello frame with the given body, and
// returns the reply frame.
func rawHello(t *testing.T, addr string, body []byte) frame {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, frame{msgType: opHello, body: body}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestHelloBadMagicRejected(t *testing.T) {
	b, _, _ := testCluster(t, 1, nil)
	if f := rawHello(t, b.Addr(), []byte("NOPE\x04")); f.msgType != respError {
		t.Errorf("respType = %d, want respError", f.msgType)
	}
}

// TestHelloWrongVersionRefused: a peer naming any version but the current
// one is refused, and the refusal keeps its ErrBadVersion identity across
// the wire.
func TestHelloWrongVersionRefused(t *testing.T) {
	b, _, _ := testCluster(t, 1, nil)
	for _, v := range []byte{4, 5, 6, 8} {
		f := rawHello(t, b.Addr(), append(helloMagic[:], v))
		if f.msgType != respError {
			t.Fatalf("version %d: respType = %d, want respError", v, f.msgType)
		}
		if err := asRemoteError(f.body); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
}

// TestFirstFrameNotHelloClosesConnection: a connection whose first frame
// is a request rather than a hello is closed unanswered, and the handler
// never runs.
func TestFirstFrameNotHelloClosesConnection(t *testing.T) {
	client, server := net.Pipe()
	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		serveFrames(server, func(telemetry.TraceContext, uint8, []byte) (uint8, []byte) {
			ran.Store(true)
			return respOK, nil
		})
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	body := append(binary.LittleEndian.AppendUint32(nil, 1), "x"...)
	if err := writeFrame(client, frame{msgType: opWrite, id: 1, body: body}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(client); err == nil {
		t.Errorf("non-hello first frame answered with %+v, want a closed connection", f)
	}
	<-done
	if ran.Load() {
		t.Error("handler ran for a connection that never sent a hello")
	}

	// The same against a live broker: the write is never applied.
	b, _, _ := testCluster(t, 1, nil)
	conn, err := net.DialTimeout("tcp", b.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, frame{msgType: opWrite, id: 1, body: body}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn); err == nil {
		t.Error("broker answered a non-hello first frame")
	}
	if st := b.Stats(); st.Writes != 0 {
		t.Errorf("broker writes = %d, want 0", st.Writes)
	}
}

// TestDialErrorsNameAddress: a failed dial and a failed hello both name
// the address, whichever kind of node the client was dialing.
func TestDialErrorsNameAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // hang up before answering the hello
		}
	}()
	t.Cleanup(func() { ln.Close() })
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	goneAddr := gone.Addr().String()
	gone.Close()
	for _, tc := range []struct{ addr, want string }{
		{goneAddr, "cluster: dial " + goneAddr},
		{ln.Addr().String(), "cluster: hello " + ln.Addr().String()},
	} {
		_, err := Dial(context.Background(), tc.addr, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Dial(%s) = %v, want an error containing %q", tc.addr, err, tc.want)
		}
	}
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(context.Background(), addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestMultiplexedConcurrentRequests(t *testing.T) {
	b, _, _ := testCluster(t, 3, nil)
	ctx := context.Background()
	c := dialClient(t, b.Addr()) // pool size 1: all requests share one connection
	const workers = 16
	const opsEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				u := uint32(w*opsEach + i)
				want := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Write(ctx, u, []byte(want)); err != nil {
					errs <- err
					return
				}
				views, err := c.Read(ctx, []uint32{u})
				if err != nil {
					errs <- err
					return
				}
				if len(views) != 1 || len(views[0].Events) != 1 || string(views[0].Events[0]) != want {
					errs <- fmt.Errorf("user %d: got %q, want %q", u, views[0].Events, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != workers*opsEach {
		t.Errorf("writes = %d, want %d", st.Writes, workers*opsEach)
	}
}

// TestContextCancellation: a request whose context is already done fails
// with the context's error and is never sent — a cancelled Write must not
// be applied.
func TestContextCancellation(t *testing.T) {
	b, _, _ := testCluster(t, 1, nil)
	c := dialClient(t, b.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Read(ctx, []uint32{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := c.Write(ctx, 1, []byte("never sent")); !errors.Is(err, context.Canceled) {
		t.Errorf("write err = %v, want context.Canceled", err)
	}
	if st := b.Stats(); st.Writes != 0 {
		t.Errorf("broker writes = %d after a cancelled Write, want 0", st.Writes)
	}
	// The connection stays usable for later requests.
	if _, err := c.Read(context.Background(), []uint32{1}); err != nil {
		t.Errorf("read after cancelled request: %v", err)
	}
}

func TestV2ReadBeyond64KTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("large read in -short mode")
	}
	b, _, _ := testCluster(t, 3, nil)
	ctx := context.Background()
	c := dialClient(t, b.Addr())
	for u := uint32(0); u < 10; u++ {
		if _, err := c.Write(ctx, u, []byte{byte(u)}); err != nil {
			t.Fatal(err)
		}
	}
	// More targets than a uint16 count could express, cycling 10 users.
	targets := make([]uint32, 0x10000+16)
	for i := range targets {
		targets[i] = uint32(i % 10)
	}
	views, err := c.Read(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(targets) {
		t.Fatalf("views = %d, want %d", len(views), len(targets))
	}
	for i, v := range views {
		if len(v.Events) != 1 || v.Events[0][0] != byte(targets[i]) {
			t.Fatalf("view %d = %+v, want event %d", i, v, targets[i])
		}
	}
}

func TestConcurrentReadsDoNotDuplicateReplicas(t *testing.T) {
	b, _, _ := testCluster(t, 3, func(cfg *BrokerConfig) {
		cfg.Placement = rackLocal(2, 3)
		cfg.MaxReplicas = 3
		cfg.PolicyEvery = time.Hour
		cfg.Policy.AdmissionEpsilon = 100
	})
	hot := userHomedOn(t, b, 0)
	if _, err := b.Write(hot, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	// 32 concurrent reads of the same user race through policy evaluation
	// and decision application; the rack-local server must be appended at
	// most once.
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = hot
	}
	for round := 0; round < 4; round++ {
		if _, err := b.Read(targets); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ReplicaCount(hot); got != 2 {
		t.Errorf("replicas = %d, want exactly 2 (home + rack-local)", got)
	}
}

func TestDecodeReadResponseHostileCount(t *testing.T) {
	// A malformed respRead claiming 2^32-1 views in a 4-byte body must be
	// rejected without attempting a giant allocation.
	body := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)
	if _, _, err := decodeReadResponse(body); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
	// Same for a read request header.
	if _, err := decodeReadRequest(body); !errors.Is(err, ErrBadFrame) {
		t.Errorf("request err = %v, want ErrBadFrame", err)
	}
}

// --- fuzzing ---

// FuzzReadFrame drives the one frame codec, with and without the trace
// flag: whatever parses must re-encode to the identical bytes, and a
// frame too short for its declared context or longer than maxFrame is
// rejected.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr frame) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, fr)
		return buf.Bytes()
	}
	readBody := []byte{1, 0, 0, 0, 42, 0, 0, 0}
	f.Add(seed(frame{msgType: opRead, id: 7, body: readBody}))
	f.Add(seed(frame{msgType: opRead, id: 7, tc: sampledTC, body: readBody}))
	f.Add(seed(frame{msgType: opHello, body: append(helloMagic[:], protoVersion)}))
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	// A flagged frame one byte short of its context.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 9+telemetry.TraceContextLen-1), opRead|traceFlag))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if werr := writeFrame(&buf, fr); werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("round trip mismatch: %x != %x", buf.Bytes(), data[:buf.Len()])
		}
	})
}

// FuzzMembershipInfo drives the respMembership body codec (an encoded
// membership view followed by one load per slot): whatever decodes must
// re-encode to the identical bytes, and hostile counts must be rejected
// before allocation.
func FuzzMembershipInfo(f *testing.F) {
	view := membership.Seed([]membership.ServerInfo{
		{Addr: "127.0.0.1:7001", Zone: 0, Rack: 1},
		{Addr: "127.0.0.1:7002", Zone: 1, Rack: 1, Capacity: 64},
	})
	view, _ = view.WithDraining("127.0.0.1:7002")
	f.Add(encodeMembershipInfo(MembershipInfo{View: view, Loads: []int64{3, 0}}))
	f.Add(membership.AppendView(nil, view)) // loads missing: rejected
	f.Add([]byte{})
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := decodeMembershipInfo(data)
		if err != nil {
			return
		}
		re := encodeMembershipInfo(info)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("membership info round trip mismatch")
		}
	})
}

func TestMembershipInfoRoundTrip(t *testing.T) {
	view := membership.Seed([]membership.ServerInfo{
		{Addr: "a:1", Zone: 0, Rack: 0},
		{Addr: "b:2", Zone: 1, Rack: 0},
	})
	view, err := view.WithAdded(membership.ServerInfo{Addr: "c:3", Zone: 2, Rack: 0})
	if err != nil {
		t.Fatal(err)
	}
	info := MembershipInfo{View: view, Loads: []int64{5, 2, 0}}
	got, err := decodeMembershipInfo(encodeMembershipInfo(info))
	if err != nil {
		t.Fatal(err)
	}
	if got.View.Epoch != 2 || len(got.View.Servers) != 3 {
		t.Fatalf("view mismatch: %+v", got.View)
	}
	for i, l := range info.Loads {
		if got.Loads[i] != l {
			t.Errorf("load %d = %d, want %d", i, got.Loads[i], l)
		}
	}
	// A truncated body is rejected, not mis-parsed.
	if _, err := decodeMembershipInfo([]byte{1, 2, 3}); err == nil {
		t.Error("short membership info decoded")
	}
}

// viewOf builds a view holding one event per seq (payload "e<seq>"), at
// the highest seq as its version.
func viewOf(seqs ...uint64) View {
	v := View{Events: make([][]byte, len(seqs)), seqs: seqs}
	for i, seq := range seqs {
		v.Events[i] = []byte(fmt.Sprintf("e%d", seq))
		v.Version = max(v.Version, seq)
	}
	return v
}

// FuzzDecodeView drives the view codec: whatever decodes must re-encode
// to the identical prefix, so the decoder accepts only the encoder's form
// (strictly ascending seqs included).
func FuzzDecodeView(f *testing.F) {
	f.Add(encodeView(nil, viewOf(3, 5)))
	f.Add(encodeView(nil, View{Version: 9, Events: [][]byte{{}, []byte("bb")}, seqs: []uint64{0, 1 << 40}}))
	f.Add(encodeView(nil, viewOf(6, 6)))
	f.Add([]byte{})
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := decodeView(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		reencoded := encodeView(nil, v)
		if !bytes.Equal(reencoded, data[:len(data)-len(rest)]) {
			t.Fatalf("view round trip mismatch")
		}
	})
}

// TestDecodeViewRejectsUnorderedSeqs: mergeViews assumes strictly
// ascending seqs, and views arrive from the network, so the decoder
// refuses a view whose seqs descend or repeat.
func TestDecodeViewRejectsUnorderedSeqs(t *testing.T) {
	for _, seqs := range [][]uint64{{6, 5}, {5, 5}, {1, 3, 2}} {
		if _, _, err := decodeView(encodeView(nil, viewOf(seqs...))); !errors.Is(err, ErrBadFrame) {
			t.Errorf("seqs %v: err = %v, want ErrBadFrame", seqs, err)
		}
	}
	if _, _, err := decodeView(encodeView(nil, viewOf(0, 5, 6))); err != nil {
		t.Errorf("ascending seqs rejected: %v", err)
	}
}

func TestPlacementEntryRoundTrip(t *testing.T) {
	buf := appendPlacementEntry(nil, 42, []int{3, 0, 7})
	e, rest, err := decodePlacementEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("trailing bytes: %d", len(rest))
	}
	if e.user != 42 || len(e.order) != 3 || e.order[0] != 3 || e.order[2] != 7 {
		t.Errorf("round trip mismatch: %+v", e)
	}
	if _, _, err := decodePlacementEntry([]byte{1, 2, 3}); err == nil {
		t.Error("short entry accepted")
	}
	// A count pointing past the body must be rejected, not allocated.
	bad := appendPlacementEntry(nil, 1, []int{1, 2})[:7]
	if _, _, err := decodePlacementEntry(bad); err == nil {
		t.Error("truncated order accepted")
	}
}

func TestPlacementTableRoundTrip(t *testing.T) {
	in := []placementEntry{
		{user: 1, order: []int{0}},
		{user: 9, order: []int{2, 1, 3}},
	}
	out, err := decodePlacementTable(encodePlacementTable(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].user != 9 || len(out[1].order) != 3 || out[1].order[1] != 1 {
		t.Errorf("round trip mismatch: %+v", out)
	}
	// Hostile count larger than the body can hold.
	hostile := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := decodePlacementTable(hostile); err == nil {
		t.Error("hostile table count accepted")
	}
	if _, err := decodePlacementTable(append(encodePlacementTable(in), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestAccessReportRoundTrip(t *testing.T) {
	reads := []reportRead{{user: 5, server: 2, count: 17}, {user: 6, server: 0, count: 1}}
	writes := []reportWrite{{user: 5, count: 3}}
	sender, gotReads, gotWrites, err := decodeAccessReport(encodeAccessReport(2, reads, writes))
	if err != nil {
		t.Fatal(err)
	}
	if sender != 2 || len(gotReads) != 2 || len(gotWrites) != 1 {
		t.Fatalf("round trip mismatch: sender=%d reads=%v writes=%v", sender, gotReads, gotWrites)
	}
	if gotReads[0] != reads[0] || gotWrites[0] != writes[0] {
		t.Errorf("entries mismatch: %+v / %+v", gotReads, gotWrites)
	}
	// Empty report round-trips too.
	if _, r, w, err := decodeAccessReport(encodeAccessReport(0, nil, nil)); err != nil || len(r) != 0 || len(w) != 0 {
		t.Errorf("empty report: %v %v %v", r, w, err)
	}
	// Hostile read count must be rejected before allocation.
	hostile := binary.LittleEndian.AppendUint32(nil, 0)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<31)
	hostile = append(hostile, 0, 0, 0, 0)
	if _, _, _, err := decodeAccessReport(hostile); err == nil {
		t.Error("hostile report count accepted")
	}
}

func TestSyncWriteRoundTrip(t *testing.T) {
	user, seq, at, payload, err := decodeSyncWrite(encodeSyncWrite(7, 99, -5, []byte("event")))
	if err != nil {
		t.Fatal(err)
	}
	if user != 7 || seq != 99 || at != -5 || string(payload) != "event" {
		t.Errorf("round trip mismatch: %d %d %d %q", user, seq, at, payload)
	}
	if _, _, _, _, err := decodeSyncWrite([]byte("short")); err == nil {
		t.Error("short sync write accepted")
	}
}

// TestLogCursorsRoundTrip pushes per-origin cursor maps through the wire
// form, including the empty map a fresh broker reports.
func TestLogCursorsRoundTrip(t *testing.T) {
	for _, cursors := range []map[uint64]uint64{
		{},
		{0: 42},
		{0: 9, 1: 700, 2: 5},
	} {
		got, err := decodeLogCursors(encodeLogCursors(cursors))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cursors) {
			t.Fatalf("round trip of %v: %v", cursors, got)
		}
		for o, seq := range cursors {
			if got[o] != seq {
				t.Fatalf("cursor[%d] = %d, want %d", o, got[o], seq)
			}
		}
	}
	// Hostile counts and short bodies are rejected before allocation, and
	// so is anything but the encoder's form: trailing bytes, repeated or
	// unsorted origins.
	pair := func(origin, seq uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, origin), seq)
	}
	two := func(a, b []byte) []byte {
		return append(append(binary.LittleEndian.AppendUint32(nil, 2), a...), b...)
	}
	for _, body := range [][]byte{
		nil, {1, 2}, {0xFF, 0xFF, 0xFF, 0xFF},
		append(encodeLogCursors(map[uint64]uint64{0: 42}), 0),
		two(pair(1, 5), pair(1, 6)),
		two(pair(2, 5), pair(1, 6)),
	} {
		if _, err := decodeLogCursors(body); err == nil {
			t.Errorf("malformed cursors body %v accepted", body)
		}
	}
}

// TestLogPullRoundTrip covers the pull request codec.
func TestLogPullRoundTrip(t *testing.T) {
	origin, after, max, err := decodeLogPull(encodeLogPull(2, 1234, 77))
	if err != nil || origin != 2 || after != 1234 || max != 77 {
		t.Fatalf("pull round trip = (%d, %d, %d, %v)", origin, after, max, err)
	}
	if _, _, _, err := decodeLogPull([]byte{1, 2, 3}); err == nil {
		t.Error("short pull body accepted")
	}
}

// TestLogRecordsRoundTrip pushes record batches through the wire form.
func TestLogRecordsRoundTrip(t *testing.T) {
	recs := []wal.Record{
		{Seq: 5, User: 1, At: 99, Payload: []byte("hello")},
		{Seq: 8, User: 2, At: 100, Payload: nil},
		{Seq: 11, User: 3, At: 101, Payload: bytes.Repeat([]byte("x"), 300)},
	}
	got, err := decodeLogRecords(encodeLogRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Seq != r.Seq || g.User != r.User || g.At != r.At || !bytes.Equal(g.Payload, r.Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, g, r)
		}
	}
	if got, err := decodeLogRecords(encodeLogRecords(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch round trip: %v, %v", got, err)
	}
	// A count the body cannot back, and a payload length past the end.
	for _, body := range [][]byte{
		nil,
		{0xFF, 0xFF, 0xFF, 0xFF},
		func() []byte {
			b := encodeLogRecords([]wal.Record{{Seq: 1, Payload: []byte("abc")}})
			return b[:len(b)-2] // truncate the payload
		}(),
	} {
		if _, err := decodeLogRecords(body); err == nil {
			t.Errorf("malformed records body accepted: %v", body)
		}
	}
}

// TestDecodersRejectShortBodies: every peer passed the same one-version
// hello, so it always sends the full body, and a body one byte short is
// malformed for each of these decoders.
func TestDecodersRejectShortBodies(t *testing.T) {
	view := membership.Seed([]membership.ServerInfo{{Addr: "a:1"}, {Addr: "b:2"}})
	readResp := appendEpochTrailer(encodeReadResponse([]View{{Version: 1}}), 3)
	putBody := appendPutMeta(encodeView(nil, viewOf(1)), 2, 5, 64)
	cases := []struct {
		name   string
		full   []byte
		decode func([]byte) error
	}{
		{"broker stats", appendBrokerStats(nil, BrokerStats{Reads: 1}), func(b []byte) error {
			_, err := decodeBrokerStats(b)
			return err
		}},
		{"put meta", appendPutMeta(nil, 2, 5, 64), func(b []byte) error {
			_, _, _, err := decodePutMeta(b)
			return err
		}},
		{"put view body", putBody, func(b []byte) error {
			_, rest, err := decodeView(b)
			if err == nil {
				_, _, _, err = decodePutMeta(rest)
			}
			return err
		}},
		{"epoch trailer", appendEpochTrailer(nil, 3), func(b []byte) error {
			_, err := decodeEpochTrailer(b)
			return err
		}},
		{"read response", readResp, func(b []byte) error {
			_, rest, err := decodeReadResponse(b)
			if err == nil {
				_, err = decodeEpochTrailer(rest)
			}
			return err
		}},
		{"membership loads", encodeMembershipInfo(MembershipInfo{View: view, Loads: []int64{4, 1}}), func(b []byte) error {
			_, err := decodeMembershipInfo(b)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.decode(c.full); err != nil {
			t.Errorf("%s: full body rejected: %v", c.name, err)
		}
		if err := c.decode(c.full[:len(c.full)-1]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: body one byte short: err = %v, want ErrBadFrame", c.name, err)
		}
	}
}

// TestLeaseGrantRoundTrip pushes leases through the respLease codec,
// including the degenerate shapes a broker can legally emit.
func TestLeaseGrantRoundTrip(t *testing.T) {
	for _, l := range []Lease{
		{User: 7, Epoch: 3, Placement: 9, TTL: 5 * time.Second, Replicas: []LeaseReplica{
			{Slot: 0, Addr: "127.0.0.1:9001"},
			{Slot: 2, Addr: "127.0.0.1:9003"},
		}},
		{User: 0, Epoch: 1, Placement: 0, TTL: time.Millisecond, Replicas: []LeaseReplica{
			{Slot: 65535, Addr: ""},
		}},
		{User: 4294967295, Epoch: 18446744073709551615, TTL: 0},
	} {
		got, rest, err := decodeLeaseGrant(appendLeaseGrant(nil, l))
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode %+v: %v (%d bytes left)", l, err, len(rest))
		}
		if got.User != l.User || got.Epoch != l.Epoch || got.Placement != l.Placement ||
			got.TTL != l.TTL || len(got.Replicas) != len(l.Replicas) {
			t.Fatalf("round trip %+v != %+v", got, l)
		}
		for i, r := range l.Replicas {
			if got.Replicas[i] != r {
				t.Errorf("replica %d = %+v, want %+v", i, got.Replicas[i], r)
			}
		}
	}
	// Short body, hostile replica count, truncated address.
	if _, _, err := decodeLeaseGrant(make([]byte, 25)); err == nil {
		t.Error("short lease body accepted")
	}
	hostile := make([]byte, 26)
	binary.LittleEndian.PutUint16(hostile[24:26], 65535)
	if _, _, err := decodeLeaseGrant(hostile); err == nil {
		t.Error("hostile replica count accepted")
	}
	full := appendLeaseGrant(nil, Lease{TTL: time.Second, Replicas: []LeaseReplica{{Slot: 1, Addr: "abc"}}})
	if _, _, err := decodeLeaseGrant(full[:len(full)-1]); err == nil {
		t.Error("truncated replica address accepted")
	}
}

// TestLeaseGrantsRoundTrip covers the batched respLease body: it
// round-trips, and rejects a short body, trailing bytes and a count
// larger than the bytes present.
func TestLeaseGrantsRoundTrip(t *testing.T) {
	grants := []Lease{
		{User: 3, Epoch: 2, Placement: 5, TTL: time.Second, Replicas: []LeaseReplica{{Slot: 1, Addr: "a:1"}, {Slot: 0, Addr: "b:2"}}},
		{User: 9, Epoch: 2, TTL: time.Millisecond},
	}
	resp := encodeLeaseGrants(grants)
	ls, err := decodeLeaseGrants(resp)
	if err != nil || len(ls) != 2 || ls[0].User != 3 || len(ls[0].Replicas) != 2 || ls[0].Replicas[1].Addr != "b:2" || ls[1].User != 9 {
		t.Fatalf("lease grants round trip = %+v, %v", ls, err)
	}
	if ls, err := decodeLeaseGrants(encodeLeaseGrants(nil)); err != nil || len(ls) != 0 {
		t.Errorf("no grants = %+v, %v", ls, err)
	}
	overCount := append([]byte(nil), resp...)
	binary.LittleEndian.PutUint32(overCount, 3)
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"short", resp[:3]},
		{"trailing bytes", append(append([]byte(nil), resp...), 0)},
		{"truncated grant", resp[:len(resp)-1]},
		{"count past the body", overCount},
		{"hostile count", []byte{0xff, 0xff, 0xff, 0xff}},
	} {
		if _, err := decodeLeaseGrants(c.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("lease grants %s: err = %v, want ErrBadFrame", c.name, err)
		}
	}
}

// TestDirectGetRoundTrip covers the batched opDirectGet request and
// respDirect answer — the carriers of the fast path's fencing tokens:
// both round-trip, and each rejects a short body, trailing bytes and a
// count larger than the bytes present; the answer also rejects an
// unknown per-user status.
func TestDirectGetRoundTrip(t *testing.T) {
	reqs := []directGetReq{{user: 42, epoch: 7, placement: 19}, {user: 0, epoch: 1<<64 - 1}}
	req := encodeDirectGet(reqs)
	got, err := decodeDirectGet(req)
	if err != nil || len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Fatalf("direct get round trip = %+v, %v", got, err)
	}
	answers := []directAnswer{
		{status: respView, view: viewOf(4, 9)},
		{status: respStaleRoute, epoch: 8, placement: 20},
		{status: respNotHere},
	}
	resp := encodeDirectAnswers(answers, 8)
	back, epoch, err := decodeDirectAnswers(resp)
	if err != nil || epoch != 8 || len(back) != 3 {
		t.Fatalf("direct answers round trip = %+v, %d, %v", back, epoch, err)
	}
	if back[0].status != respView || back[0].view.Version != 9 || len(back[0].view.Events) != 2 {
		t.Errorf("view answer = %+v", back[0])
	}
	if back[1].status != respStaleRoute || back[1].epoch != 8 || back[1].placement != 20 {
		t.Errorf("stale-route answer = %+v", back[1])
	}
	if back[2].status != respNotHere {
		t.Errorf("not-here answer = %+v", back[2])
	}
	overCount := func(b []byte) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint16(b, binary.LittleEndian.Uint16(b)+1)
		return b
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"short", req[:1]},
		{"trailing bytes", append(append([]byte(nil), req...), 0)},
		{"truncated user", req[:len(req)-1]},
		{"count past the body", overCount(req)},
	} {
		if _, err := decodeDirectGet(c.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("direct get %s: err = %v, want ErrBadFrame", c.name, err)
		}
	}
	unknown := encodeDirectAnswers([]directAnswer{{status: respNotHere}}, 8)
	unknown[2] = respOK
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"short", resp[:1]},
		{"trailing bytes", append(append([]byte(nil), resp...), 0)},
		{"no epoch trailer", resp[:len(resp)-8]},
		{"count past the body", overCount(resp)},
		{"hostile count", []byte{0xff, 0xff, 0}},
		{"unknown status", unknown},
	} {
		if _, _, err := decodeDirectAnswers(c.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("direct answers %s: err = %v, want ErrBadFrame", c.name, err)
		}
	}
	epoch, placement, err := decodeStaleRoute(appendStaleRoute(nil, 8, 20))
	if err != nil || epoch != 8 || placement != 20 {
		t.Fatalf("stale route round trip = (%d, %d, %v)", epoch, placement, err)
	}
	if _, _, err := decodeStaleRoute(make([]byte, 15)); err == nil {
		t.Error("short stale route accepted")
	}
}

// TestPutMetaTrailer pins the opPutView body layout: the view, then the
// fencing metadata and the view cap, which read back intact and are
// required.
func TestPutMetaTrailer(t *testing.T) {
	v := viewOf(4, 9)
	body := appendPutMeta(encodeView(nil, v), 5, 11, 16)
	got, rest, err := decodeView(body)
	if err != nil || got.Version != 9 || len(got.Events) != 2 {
		t.Fatalf("view with trailer = %+v, %v", got, err)
	}
	epoch, placement, limit, err := decodePutMeta(rest)
	if err != nil || epoch != 5 || placement != 11 || limit != 16 {
		t.Fatalf("trailer = (%d, %d, %d, %v), want (5, 11, 16, nil)", epoch, placement, limit, err)
	}
	// No metadata: a malformed put, not an unknown epoch.
	_, rest, err = decodeView(encodeView(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodePutMeta(rest); !errors.Is(err, ErrBadFrame) {
		t.Errorf("absent trailer: err = %v, want ErrBadFrame", err)
	}
	// A cap of zero events would cache nothing.
	if _, _, _, err := decodePutMeta(appendPutMeta(nil, 5, 11, 0)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero cap: err = %v, want ErrBadFrame", err)
	}
}

// FuzzDecodeLease drives the one-grant codec of respLease: whatever
// decodes must re-encode to the identical prefix, and hostile replica
// counts must be rejected before allocation.
func FuzzDecodeLease(f *testing.F) {
	f.Add(appendLeaseGrant(nil, Lease{User: 1, Epoch: 2, Placement: 3, TTL: time.Second,
		Replicas: []LeaseReplica{{Slot: 0, Addr: "127.0.0.1:9001"}}}))
	f.Add(appendLeaseGrant(nil, Lease{TTL: time.Millisecond}))
	f.Add([]byte{})
	f.Add(make([]byte, 26))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, rest, err := decodeLeaseGrant(data)
		if err != nil {
			return
		}
		re := appendLeaseGrant(nil, l)
		if !bytes.Equal(re, data[:len(re)]) || len(re)+len(rest) != len(data) {
			t.Fatalf("lease round trip mismatch: %x != %x", re, data[:len(re)])
		}
	})
}

// FuzzDecodeLeaseGrants drives the batched respLease body: whatever
// decodes must re-encode to exactly the input.
func FuzzDecodeLeaseGrants(f *testing.F) {
	f.Add(encodeLeaseGrants([]Lease{{User: 1, Epoch: 2, Placement: 3, TTL: time.Second,
		Replicas: []LeaseReplica{{Slot: 0, Addr: "127.0.0.1:9001"}}}, {User: 4, TTL: time.Millisecond}}))
	f.Add(encodeLeaseGrants(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		ls, err := decodeLeaseGrants(data)
		if err != nil {
			return
		}
		if re := encodeLeaseGrants(ls); !bytes.Equal(re, data) {
			t.Fatalf("lease grants round trip mismatch: %x != %x", re, data)
		}
	})
}

// FuzzDecodeDirectGet drives the batched opDirectGet body codec:
// whatever decodes must re-encode to exactly the input.
func FuzzDecodeDirectGet(f *testing.F) {
	f.Add(encodeDirectGet([]directGetReq{{user: 7, epoch: 1, placement: 2}, {user: 8, epoch: 1}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := decodeDirectGet(data)
		if err != nil {
			return
		}
		if re := encodeDirectGet(reqs); !bytes.Equal(re, data) {
			t.Fatalf("direct get round trip mismatch: %x != %x", re, data)
		}
	})
}

// FuzzDecodeDirectAnswers drives the respDirect body codec: whatever
// decodes must re-encode to exactly the input, and hostile counts must be
// rejected before allocation.
func FuzzDecodeDirectAnswers(f *testing.F) {
	f.Add(encodeDirectAnswers([]directAnswer{
		{status: respView, view: viewOf(4, 9)},
		{status: respStaleRoute, epoch: 8, placement: 20},
		{status: respNotHere},
	}, 8))
	f.Add(encodeDirectAnswers(nil, 1))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, respNotHere})
	f.Fuzz(func(t *testing.T, data []byte) {
		answers, epoch, err := decodeDirectAnswers(data)
		if err != nil {
			return
		}
		if re := encodeDirectAnswers(answers, epoch); !bytes.Equal(re, data) {
			t.Fatalf("direct answers round trip mismatch: %x != %x", re, data)
		}
	})
}

// FuzzDecodeStaleRoute drives the respStaleRoute body codec.
func FuzzDecodeStaleRoute(f *testing.F) {
	f.Add(appendStaleRoute(nil, 3, 4))
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, placement, err := decodeStaleRoute(data)
		if err != nil {
			return
		}
		re := appendStaleRoute(nil, epoch, placement)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("stale route round trip mismatch")
		}
	})
}

// FuzzDecodePlacementTable drives the one placement push body
// (opPlacementBatch, and the respPlacement anti-entropy answer): input
// never panics, and whatever decodes re-encodes to the identical bytes.
func FuzzDecodePlacementTable(f *testing.F) {
	f.Add(encodePlacementTable([]placementEntry{{user: 7, order: []int{2, 0}}}))
	f.Add(encodePlacementTable([]placementEntry{
		{user: 1, order: []int{0}},
		{user: 9, order: []int{2, 1, 3}},
	}))
	f.Add(encodePlacementTable(nil))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<30))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodePlacementTable(data)
		if err != nil {
			return
		}
		if re := encodePlacementTable(entries); !bytes.Equal(re, data) {
			t.Fatalf("placement table round trip mismatch: %x != %x", re, data)
		}
	})
}

// FuzzDecodeLogCursors drives the cursor-exchange answer, which is both
// the liveness probe and the start of WAL catch-up: input never panics,
// and whatever decodes re-encodes to the identical bytes.
func FuzzDecodeLogCursors(f *testing.F) {
	f.Add(encodeLogCursors(map[uint64]uint64{0: 9, 1: 700, 2: 5}))
	f.Add(encodeLogCursors(map[uint64]uint64{}))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cursors, err := decodeLogCursors(data)
		if err != nil {
			return
		}
		if re := encodeLogCursors(cursors); !bytes.Equal(re, data) {
			t.Fatalf("log cursors round trip mismatch: %x != %x", re, data)
		}
	})
}
