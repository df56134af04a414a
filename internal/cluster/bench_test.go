package cluster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"dynasore/internal/telemetry"
)

// benchClusterSetup starts 3 cache servers and a broker for throughput
// benchmarks over real TCP on localhost.
func benchClusterSetup(b *testing.B) testClient {
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
	return dialTest(b, br.Addr())
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
		s.install(u, v, 0, 1)
	}
	return s
}

// BenchmarkServerParallelGet measures concurrent view gets against one
// cache server (run with -cpu 8): with the hash-sharded view map,
// concurrent readers no longer serialize on a single RWMutex.
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
			if rt, _ := s.handle(telemetry.TraceContext{}, opGetView, body); rt != respView {
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
				if rt, _ := s.handle(telemetry.TraceContext{}, opPutView, putBody); rt != respOK {
					bad.Add(1)
				}
				continue
			}
			binary.LittleEndian.PutUint32(get, user)
			if rt, _ := s.handle(telemetry.TraceContext{}, opGetView, get); rt != respView {
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
	c := benchClusterSetup(b)
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
	c := benchClusterSetup(b)
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
