package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dynasore/internal/cluster"
)

// serverStats snapshots every cache server's counters.
func (r *rig) serverStats() []cluster.ServerStats {
	out := make([]cluster.ServerStats, len(r.servers))
	for i, s := range r.servers {
		out[i] = s.Stats()
	}
	return out
}

// topSwitchViews counts the views the cache servers beyond the top switch
// served or received between two snapshots: gets (broker hits), direct
// reads and puts. This is the paper's top-switch traffic in views.
func topSwitchViews(before, after []cluster.ServerStats) float64 {
	var n int64
	for i, pos := range serverLayout {
		if classify(frontEnd, pos) != levelTop {
			continue
		}
		a, b := after[i], before[i]
		n += a.Hits - b.Hits + a.DirectReads - b.DirectReads + a.Puts - b.Puts
	}
	return float64(n)
}

// runTraced produces the per-layer metrics. It first runs the open-loop
// phase untraced on a plain cluster, as the reference for the tracing
// overhead, then again on a cluster whose links run through byte-counting
// relays, with a span around every call into a layer and counter snapshots
// around the phase. Spans are written to a file when the run ends.
func runTraced(ctx context.Context, w *workload, in *inputs, seed int64, dir string) (*report, error) {
	rep := &report{correct: true}

	// Untraced reference.
	r, d, s, err := setup(ctx, w, in, filepath.Join(dir, "reference"), false, nil)
	if err != nil {
		return nil, err
	}
	rep.tally(s.warmOps, 0, d.check)
	ref := d.openLoop(ctx, in.open, nil)
	lost := d.check.sweep(ctx, d.clients[0], 256)
	if err := r.close(); err != nil {
		return nil, err
	}
	rep.tally(ref.tally, lost, d.check)

	tr := newTracer(len(in.open), w.gateway)
	r, d, s, err = setup(ctx, w, in, filepath.Join(dir, "traced"), true, tr)
	if err != nil {
		return nil, err
	}
	rep.tally(s.warmOps, 0, d.check)
	defer r.close()
	snapStart := time.Now()
	before, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	tr.record("snapshot", snapStart, time.Now())
	wal := watchWAL(r.walDirs)
	walBefore := wal.total()
	ackedBefore := d.acked.Load()

	open := d.openLoop(ctx, in.open, tr)

	walBytes := wal.finish(walBefore)
	snapStart = time.Now()
	after, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	tr.record("snapshot", snapStart, time.Now())
	lost = d.check.sweep(ctx, d.clients[0], 256)
	rep.tally(open.tally, lost, d.check)

	l := layerInputs{
		w: w, open: open, tr: tr, before: before, after: after, setup: s,
		walBytes: walBytes, ackedBytes: d.acked.Load() - ackedBefore,
		refReadMean: meanLatency(ref, false), tracedReadMean: meanLatency(open, false),
		replicas: r.replicasPerView(),
	}
	rep.metrics = l.metrics()
	rep.linef("top_switch_views_per_op %.6f views/op (traced run, for the net.top_bytes_per_op cross-check)",
		topSwitchViews(before.servers, after.servers)/float64(len(open.ops)))

	spans := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	rep.linef("spans written to %s", spans)
	return rep, nil
}

// meanLatency is the mean due-to-completion latency of the successful ops
// of one kind.
func meanLatency(res openResult, write bool) time.Duration {
	var n, sum int64
	for i, o := range res.ops {
		if o.write == write && res.latency[i] != failedSample {
			n++
			sum += int64(res.latency[i])
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	w                           *workload
	open                        openResult
	tr                          *tracer
	before, after               snapshot
	setup                       setupResult
	walBytes, ackedBytes        int64
	refReadMean, tracedReadMean time.Duration
	replicas                    float64 // mean replicas per view after the phase
}

// sum adds up one counter over a snapshot's servers or brokers.
func sum[T any](xs []T, f func(T) int64) int64 {
	var n int64
	for _, x := range xs {
		n += f(x)
	}
	return n
}

// metrics computes every per-layer metric, in README.md order.
func (l *layerInputs) metrics() []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	b, a := l.before, l.after
	srv := func(f func(cluster.ServerStats) int64) float64 {
		return float64(sum(a.servers, f) - sum(b.servers, f))
	}
	brk := func(f func(cluster.BrokerStats) int64) float64 {
		return float64(sum(a.brokers, f) - sum(b.brokers, f))
	}
	ops := float64(len(l.open.ops))
	var reads, writes, views float64
	for _, o := range l.open.ops {
		if o.write {
			writes++
		} else {
			reads++
			views += float64(len(o.targets))
		}
	}
	perKop := func(n float64) float64 { return ratio(1000*n, ops) }

	last := len(l.open.ops) - 1
	add("loadgen.lag_p99_ms", "ms", ms(percentile(append([]time.Duration(nil), l.open.lag...), 0.99)))
	add("loadgen.offered_ops_s", "ops/s", ratio(ops, (l.open.ops[last].due+l.open.lag[last]).Seconds()))

	add("setup.boot_s", "s", l.setup.boot.Seconds())
	add("setup.seed_s", "s", l.setup.seed.Seconds())
	add("setup.warm_s", "s", l.setup.warm.Seconds())

	readCall := l.tr.callMean(false)
	writeCall := l.tr.callMean(true)
	add("client.read_us_mean", "us", float64(readCall)/1e3)
	add("client.write_us_mean", "us", float64(writeCall)/1e3)
	add("client.views_per_read", "views/read", ratio(views, reads))

	var stages, hits float64
	for _, st := range directStages {
		stages += float64(a.ladder[st] - b.ladder[st])
	}
	hits = float64(a.ladder["hit"] - b.ladder["hit"])
	add("direct.hit_ratio", "ratio", ratio(hits, stages))
	add("direct.fallback_views_per_read", "views/read", ratio(stages-hits, reads))
	add("direct.stale_per_kop", "1/kop", perKop(srv(func(s cluster.ServerStats) int64 { return s.DirectStale })))
	add("direct.lease_grants_per_kop", "1/kop", perKop(brk(func(s cluster.BrokerStats) int64 { return s.LeaseGrants })))
	add("direct.get_us_mean", "us", a.directGet.sub(b.directGet).meanUS())

	brokerRead := a.brokerRead.sub(b.brokerRead).meanUS()
	brokerWrite := a.brokerWrite.sub(b.brokerWrite).meanUS()
	add("broker.read_us_mean", "us", brokerRead)
	add("broker.write_us_mean", "us", brokerWrite)
	add("broker.lease_us_mean", "us", a.brokerLease.sub(b.brokerLease).meanUS())
	add("broker.misses_per_kread", "1/kread", ratio(1000*brk(func(s cluster.BrokerStats) int64 { return s.Misses }), reads))

	add("protocol.read_remainder_us", "us", float64(readCall)/1e3-brokerRead)
	add("protocol.write_remainder_us", "us", float64(writeCall)/1e3-brokerWrite)

	serverGet := a.serverGet.sub(b.serverGet)
	hitsSrv := srv(func(s cluster.ServerStats) int64 { return s.Hits })
	missSrv := srv(func(s cluster.ServerStats) int64 { return s.Misses })
	add("server.get_us_mean", "us", serverGet.meanUS())
	add("server.put_us_mean", "us", a.serverPut.sub(b.serverPut).meanUS())
	add("server.gets_per_read", "gets/read", ratio(float64(serverGet.count), reads))
	add("server.puts_per_write", "puts/write", ratio(srv(func(s cluster.ServerStats) int64 { return s.Puts }), writes))
	add("server.hit_ratio", "ratio", ratio(hitsSrv, hitsSrv+missSrv))

	sync := a.syncWrite.sub(b.syncWrite)
	add("peers.sync_us_mean", "us", sync.meanUS())
	add("peers.sync_writes_per_write", "1/write", ratio(float64(sync.count), writes))
	add("peers.catchup_records", "count", brk(func(s cluster.BrokerStats) int64 { return s.CatchupRecords }))

	replicated := brk(func(s cluster.BrokerStats) int64 { return s.Replicated })
	evicted := brk(func(s cluster.BrokerStats) int64 { return s.Evicted })
	add("policy.replicated_per_kop", "1/kop", perKop(replicated))
	add("policy.evicted_per_kop", "1/kop", perKop(evicted))
	add("policy.migrated_per_kop", "1/kop", perKop(brk(func(s cluster.BrokerStats) int64 { return s.Migrated })))
	survival := 0.0
	if replicated > 0 {
		survival = 1 - evicted/replicated
	}
	add("policy.replica_survival", "ratio", survival)
	add("policy.replicas_per_view", "replicas/view", l.replicas)

	add("wal.append_us_mean", "us", a.walAppend.sub(b.walAppend).meanUS())
	add("wal.fsync_us_mean", "us", a.walFsync.sub(b.walFsync).meanUS())
	add("wal.fsyncs_per_kwrite", "1/kwrite", ratio(1000*float64(a.walFsync.count-b.walFsync.count), writes))
	add("wal.bytes_per_user_byte", "B/B", ratio(float64(l.walBytes), float64(l.ackedBytes)))

	add("checkpoint.saves", "count", brk(func(s cluster.BrokerStats) int64 { return s.Checkpoints }))
	add("checkpoint.save_ms_mean", "ms", a.ckptSave.sub(b.ckptSave).meanUS()/1e3)
	add("checkpoint.compacted_segments", "count", brk(func(s cluster.BrokerStats) int64 { return s.CompactedSegments }))

	gwRead := a.gwRead.sub(b.gwRead).meanUS()
	add("gateway.read_us_mean", "us", gwRead)
	add("gateway.write_us_mean", "us", a.gwWrite.sub(b.gwWrite).meanUS())
	gwRemainder := 0.0
	if l.w.gateway {
		gwRemainder = float64(readCall)/1e3 - gwRead
	}
	add("gateway.read_remainder_us", "us", gwRemainder)

	add("net.top_bytes_per_op", "B/op", ratio(float64(a.relayBytes[levelTop]-b.relayBytes[levelTop]), ops))
	add("net.zone_bytes_per_op", "B/op", ratio(float64(a.relayBytes[levelZone]-b.relayBytes[levelZone]), ops))
	add("net.rack_bytes_per_op", "B/op", ratio(float64(a.relayBytes[levelRack]-b.relayBytes[levelRack]), ops))
	add("net.peer_bytes_per_write", "B/write", ratio(float64(a.peerBytes-b.peerBytes), writes))

	add("runtime.alloc_kb_per_op", "KiB/op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1024, ops))
	add("runtime.gc_per_kop", "1/kop", perKop(float64(a.mem.NumGC-b.mem.NumGC)))

	add("trace.overhead_frac", "ratio", ratio(float64(l.tracedReadMean-l.refReadMean), float64(l.refReadMean)))
	return out
}

// replicasPerView is the mean replication degree over every user, as the
// policy leader sees it.
func (r *rig) replicasPerView() float64 {
	leader := r.brokers[0]
	for _, b := range r.brokers {
		if b.IsLeader() {
			leader = b
		}
	}
	var n int
	for u := 0; u < r.w.users; u++ {
		n += leader.ReplicaCount(uint32(u))
	}
	return ratio(float64(n), float64(r.w.users))
}
