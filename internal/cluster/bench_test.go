package cluster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"dynasore/internal/telemetry"
)

// benchClusterSetup starts 3 cache servers and a broker for throughput
// benchmarks over real TCP on localhost.
func benchClusterSetup(b *testing.B) (*Broker, testClient) {
	b.Helper()
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		addrs = append(addrs, s.Addr())
	}
	br, err := NewBroker(BrokerConfig{
		Addr: "127.0.0.1:0", ServerAddrs: addrs, DataDir: b.TempDir(), Placement: rackLocal(-1, 3),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { br.Close() })
	return br, dialTest(b, br.Addr())
}

// benchServer starts one cache server seeded with views, bypassing the
// network: the parallel benchmarks drive s.handle directly to isolate the
// in-memory data structure from TCP syscall costs.
func benchServer(b *testing.B, users uint32) *Server {
	b.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	v := View{Version: 1, Events: [][]byte{make([]byte, 140)}, seqs: []uint64{1}}
	for u := uint32(0); u < users; u++ {
		installView(s, u, v, 0, 1)
	}
	return s
}

// BenchmarkServerParallelGet measures concurrent one-user view gets
// against one cache server (run with -cpu 8): with the hash-sharded view
// map, concurrent readers no longer serialize on a single RWMutex. A hit
// answers with the count and length header and the cached view's own
// buffer; no view byte is copied.
func BenchmarkServerParallelGet(b *testing.B) {
	const users = 4096
	s := benchServer(b, users)
	var bad atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		body := make([]byte, 4)
		var u uint32
		for pb.Next() {
			binary.LittleEndian.PutUint32(body, u%users)
			u += 13
			if resp, err := s.handle(telemetry.TraceContext{}, opGetView, body); err != nil || len(resp) != 2 {
				bad.Add(1)
			}
		}
	})
	b.StopTimer()
	if bad.Load() > 0 {
		b.Fatalf("%d gets missed", bad.Load())
	}
}

// BenchmarkServerParallelMixed is the same shard-contention probe with a
// 90/10 get/put mix, exercising the write path's exclusive shard locks.
func BenchmarkServerParallelMixed(b *testing.B) {
	const users = 4096
	s := benchServer(b, users)
	// A cap of one keeps every view at one event, as seeded: each put
	// supersedes the cached view the way a broker's next write does.
	put := appendPutMeta(encodeView(binary.LittleEndian.AppendUint32(nil, 0), View{Version: 2, Events: [][]byte{make([]byte, 140)}, seqs: []uint64{2}}), 1, 0, 1)
	// Each goroutine reuses one put body for every user: the server keeps
	// the view bytes after the user id as the cached view, and only the
	// user id is rewritten between puts.
	var bad atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		get := make([]byte, 4)
		putBody := append([]byte(nil), put...)
		var u uint32
		for pb.Next() {
			user := u % users
			u += 13
			if u%10 == 0 {
				binary.LittleEndian.PutUint32(putBody[:4], user)
				if _, err := s.handle(telemetry.TraceContext{}, opPutView, putBody); err != nil {
					bad.Add(1)
				}
				continue
			}
			binary.LittleEndian.PutUint32(get, user)
			if resp, err := s.handle(telemetry.TraceContext{}, opGetView, get); err != nil || len(resp) != 2 {
				bad.Add(1)
			}
		}
	})
	b.StopTimer()
	if bad.Load() > 0 {
		b.Fatalf("%d ops failed", bad.Load())
	}
}

// BenchmarkClusterWrite measures end-to-end write latency: WAL append plus
// cache refresh over TCP.
func BenchmarkClusterWrite(b *testing.B) {
	_, c := benchClusterSetup(b)
	payload := make([]byte, 140)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(uint32(i%500), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRead measures end-to-end feed-read latency for a
// 10-producer feed.
func BenchmarkClusterRead(b *testing.B) {
	_, c := benchClusterSetup(b)
	targets := make([]uint32, 10)
	for i := range targets {
		targets[i] = uint32(i)
		if _, err := c.Write(uint32(i), []byte("seed event")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerFanoutRead measures one broker read of 3 users, each
// holding 16 events of 512 bytes, over loopback: homed on 3 different
// cache servers (spread) or all on one (one-server). The broker sends
// one get frame to each server that holds some of the users, so the
// read costs 3 frames spread and 1 on one server (get-frames/read). The
// view bytes cross each server's answer and the client's decode;
// -benchmem shows what the hops allocate per read.
func BenchmarkBrokerFanoutRead(b *testing.B) {
	gets := telemetry.Default().Histogram("dynasore_server_op_seconds", "Cache-server op latency.", "op", "get")
	for _, c := range []struct {
		name string
		home func(i int) int
	}{
		{"spread", func(i int) int { return i }},
		{"one-server", func(int) int { return 0 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			br, cl := benchClusterSetup(b)
			var targets []uint32
			for u := uint32(0); len(targets) < 3; u++ {
				if u == 10_000 {
					b.Fatalf("found %d of 3 users among 10000", len(targets))
				}
				if br.HomeOf(u) == c.home(len(targets)) {
					targets = append(targets, u)
				}
			}
			payload := make([]byte, 512)
			for _, u := range targets {
				for range 16 {
					if _, err := cl.Write(u, payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, err := cl.Read(targets); err != nil { // fill the caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			before := gets.Count()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Read(targets); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(gets.Count()-before)/float64(b.N), "get-frames/read")
		})
	}
}
