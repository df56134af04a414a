package cluster

import (
	"context"
	"testing"
	"time"

	"dynasore/internal/telemetry"
)

// tracingClient dials addr with a client that samples every request into
// its own telemetry node.
func tracingClient(t *testing.T, ctx context.Context, addr string) (*Client, *telemetry.Node) {
	t.Helper()
	c, err := Dial(ctx, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	clientTel := telemetry.New()
	c.setTelemetry(clientTel)
	clientTel.SetSampleEvery(1)
	return c, clientTel
}

// TestClientTraceReachesBroker is the tracing acceptance path: a client
// that samples every request mints a trace context, the frame's trace
// flag carries it to the broker, and the broker's trace ring ends up
// holding a span with the client's trace ID and a full per-stage
// breakdown.
func TestClientTraceReachesBroker(t *testing.T) {
	brokerTel := telemetry.New()
	brokers, _ := testBrokerCluster(t, 1, 2, func(i int, cfg *BrokerConfig) {
		cfg.Telemetry = brokerTel
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, clientTel := tracingClient(t, ctx, brokers[0].Addr())

	if _, err := c.Write(ctx, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, []uint32{7}); err != nil {
		t.Fatal(err)
	}

	clientIDs := make(map[string]string) // trace ID -> client op
	for _, r := range clientTel.Traces(0) {
		clientIDs[r.TraceID] = r.Op
	}
	if len(clientIDs) < 2 {
		t.Fatalf("client recorded %d traces, want >= 2", len(clientIDs))
	}

	sawRead, sawWrite := false, false
	for _, r := range brokerTel.Traces(0) {
		if _, ok := clientIDs[r.TraceID]; !ok {
			continue
		}
		switch r.Op {
		case "broker.read":
			sawRead = true
			if len(r.Stages) < 3 {
				t.Errorf("broker.read has %d stages %v, want >= 3", len(r.Stages), r.Stages)
			}
			if r.ParentSpanID == "" {
				t.Error("broker.read span has no parent; client span should be upstream")
			}
		case "broker.write":
			sawWrite = true
			if len(r.Stages) < 3 {
				t.Errorf("broker.write has %d stages %v, want >= 3", len(r.Stages), r.Stages)
			}
		}
	}
	if !sawRead || !sawWrite {
		t.Errorf("broker traces missing client-minted ops: read=%v write=%v (ring: %+v)",
			sawRead, sawWrite, brokerTel.Traces(0))
	}
}

// TestTraceCrossesEveryLink pins trace continuity over every hop the frame
// flag carries: one sampled client write must leave spans under the
// client's trace ID on the origin broker, on a cache server and on the
// peer broker it replicates to; one sampled read must leave spans on the
// broker and on the cache server that served it.
func TestTraceCrossesEveryLink(t *testing.T) {
	brokerTel := telemetry.New()
	brokers, _ := testBrokerCluster(t, 2, 2, func(i int, cfg *BrokerConfig) {
		cfg.Telemetry = brokerTel
		// Per-broker WALs, so the write is replicated to the peer.
		cfg.Store = nil
		cfg.DataDir = t.TempDir()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, clientTel := tracingClient(t, ctx, brokers[0].Addr())

	if _, err := c.Write(ctx, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	traceOf := make(map[string]string) // client op -> trace ID
	for _, r := range clientTel.Traces(0) {
		traceOf[r.Op] = r.TraceID
	}
	writeID, readID := traceOf["client.write"], traceOf["client.read"]
	if writeID == "" || readID == "" {
		t.Fatalf("client traces = %v, want client.write and client.read", traceOf)
	}

	want := map[string]string{
		"broker.write":      writeID,
		"server.put":        writeID,
		"broker.sync_write": writeID, // recorded by the peer broker
		"broker.read":       readID,
		"server.get":        readID,
	}
	// Peer replication runs in the background, so its span may land after
	// the write returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		seen := make(map[string]bool)
		// Cache servers record into the process-default node; brokers into
		// brokerTel.
		for _, r := range append(brokerTel.Traces(0), telemetry.Default().Traces(0)...) {
			if want[r.Op] == r.TraceID {
				seen[r.Op] = true
			}
		}
		if len(seen) == len(want) {
			return
		}
		if time.Now().After(deadline) {
			for op := range want {
				if !seen[op] {
					t.Errorf("no %s span under the client's trace ID", op)
				}
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
