package cluster

import (
	"sync/atomic"
	"time"

	"dynasore/internal/membership"
	"dynasore/internal/telemetry"
	"dynasore/internal/topology"
	"dynasore/internal/viewpolicy"
)

// This file is the broker-to-broker half of a multi-broker cluster: the
// paper runs one broker in every front-end cluster, each observing its own
// traffic, while replica placement is coordinated across the tree. Here
// that split is: every broker serves reads and writes from its own
// topology position; placement metadata (replica sets) is replicated state
// kept converged by delta broadcasts plus periodic anti-entropy pulls; and
// the placement policy itself runs on a single elected leader — the alive
// broker with the smallest position — fed by the followers' access
// reports, so Algorithm 2 weighs every front-end cluster's traffic, not
// just the leader's.

// peerDeathThreshold is how many consecutive failed pings mark a peer
// dead. One blip is forgiven; two sync intervals of silence trigger
// re-election.
const peerDeathThreshold = 2

// placementPullEvery is how many sync rounds pass between anti-entropy
// pulls of the leader's full placement table. Delta broadcasts cover the
// steady state; the periodic pull only repairs lost deltas, so it does not
// need to run — and cost O(users) — every round.
const placementPullEvery = 5

// peerTimeout bounds every peer round trip (dial included), so a hung or
// partitioned peer can never stall the sync loop that exists to detect it.
func peerTimeout(syncEvery time.Duration) time.Duration {
	d := 4 * syncEvery
	if d < time.Second {
		d = time.Second
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// Catch-up tuning: one opLogPull response carries at most maxPullRecords
// records and roughly maxPullBytes of payload (both well under the frame
// limit), and one catch-up pass pulls at most maxPullRounds pages per
// origin — a badly lagging broker converges over several sync rounds
// instead of stalling one.
const (
	maxPullRecords = 512
	maxPullBytes   = 4 << 20
	maxPullRounds  = 8
)

// peerState tracks one remote broker of the cluster: its configuration,
// a pooled connection, and liveness as observed by this broker.
type peerState struct {
	idx      int
	info     PeerInfo
	conn     *serverConn
	alive    atomic.Bool
	misses   atomic.Int32
	pinging  atomic.Bool
	catching atomic.Bool
}

// IsLeader reports whether this broker currently runs the placement
// policy. A single-broker cluster is always its own leader.
func (b *Broker) IsLeader() bool { return int(b.leaderIdx.Load()) == b.selfIdx }

// Leader returns the index (in BrokerConfig.Peers) of the broker this node
// currently considers the placement-policy leader.
func (b *Broker) Leader() int { return int(b.leaderIdx.Load()) }

// elect recomputes the leader from this broker's view of peer liveness:
// the alive broker with the smallest position wins (zone, then rack, then
// cluster index as the deterministic tie-break). Every broker runs the
// same rule over the shared Peers order, so views agree as soon as
// liveness observations do.
func (b *Broker) elect() {
	best := b.selfIdx
	bestPos := b.selfPos()
	for _, p := range b.peers {
		if p == nil || !p.alive.Load() {
			continue
		}
		if posLess(p.info.Pos, p.idx, bestPos, best) {
			best, bestPos = p.idx, p.info.Pos
		}
	}
	b.leaderIdx.Store(int32(best))
}

func (b *Broker) selfPos() Position {
	if len(b.cfg.Peers) > 0 {
		return b.cfg.Peers[b.selfIdx].Pos
	}
	return Position{}
}

// posLess orders broker candidates for election: smallest position wins.
func posLess(a Position, ai int, z Position, zi int) bool {
	if a.Zone != z.Zone {
		return a.Zone < z.Zone
	}
	if a.Rack != z.Rack {
		return a.Rack < z.Rack
	}
	return ai < zi
}

// syncLoop drives the periodic peer-sync pass of a multi-broker cluster.
func (b *Broker) syncLoop() {
	defer b.loops.Done()
	ticker := time.NewTicker(b.cfg.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			b.syncOnce()
		case <-b.stop:
			return
		}
	}
}

// syncOnce is one peer-sync pass: fire a liveness ping at every peer,
// re-elect from the current liveness observations, then either discard the
// follower-era report buffer (leader) or push the buffered access
// aggregates to the leader and periodically pull its placement table
// (follower). Pings run detached — the round never waits for them, so a
// hung or partitioned peer cannot stall the very loop that exists to
// detect it; its eventual timeout (bounded by the peer I/O timeout) feeds
// the next round's election instead. The pull is the anti-entropy half of
// placement sync: deltas lost to a dead connection are repaired within a
// few sync intervals.
func (b *Broker) syncOnce() {
	for _, p := range b.peers {
		if p == nil || !p.pinging.CompareAndSwap(false, true) {
			// At most one ping in flight per peer: a ping still running a
			// whole round later is itself evidence the peer is in trouble,
			// and its timeout will record the miss.
			continue
		}
		b.bgMu.Lock()
		if b.bgDone {
			b.bgMu.Unlock()
			p.pinging.Store(false)
			return
		}
		b.bg.Add(1)
		b.bgMu.Unlock()
		go func(p *peerState) {
			defer b.bg.Done()
			defer p.pinging.Store(false)
			respType, _, err := p.conn.roundTrip(opPeerHello, encodePeerHello(uint32(b.selfIdx)))
			if err != nil || respType != respOK {
				if p.misses.Add(1) >= peerDeathThreshold {
					p.alive.Store(false)
				}
				return
			}
			p.misses.Store(0)
			p.alive.Store(true)
		}(p)
	}
	b.elect()
	if b.ownWAL {
		b.syncWALs()
	}
	if b.IsLeader() {
		// Anything buffered while following is already in this broker's own
		// access logs; reporting it to itself would double-count.
		b.reportMu.Lock()
		clear(b.repReads)
		clear(b.repWrites)
		b.reportMu.Unlock()
		return
	}
	leader := b.peers[b.Leader()]
	if leader == nil || !leader.alive.Load() {
		return
	}
	b.pushReport(leader)
	if b.syncRound.Add(1)%placementPullEvery == 0 {
		b.pullPlacement(leader)
		b.pullMembership(leader)
	}
}

// pullMembership fetches the leader's current membership view — the
// anti-entropy half of membership sync, repairing delta broadcasts lost
// while this broker or a connection was down. Stale and malformed views
// are ignored by the installer.
func (b *Broker) pullMembership(leader *peerState) {
	respType, body, err := leader.conn.roundTrip(opMembershipPull, nil)
	if err != nil || respType != respMembership {
		return
	}
	b.applyMembershipPayload(body)
}

// broadcastMembership pushes an encoded membership view to every peer —
// even ones currently marked dead, exactly like WAL replication: a
// mislabeled but reachable peer must not keep serving under a retired
// epoch. Peers that truly missed it recover via pullMembership or WAL
// catch-up.
func (b *Broker) broadcastMembership(payload []byte) {
	b.broadcast(true, func(p *peerState) {
		_, _, _ = p.conn.roundTrip(opMembershipDelta, payload)
	})
}

// noteRead buffers one locally served read for the next access report:
// user's view was served from cache server idx on behalf of this broker's
// front-end cluster.
func (b *Broker) noteRead(user uint32, idx int) {
	b.reportMu.Lock()
	b.repReads[repKey{user: user, server: uint16(idx)}]++
	b.reportMu.Unlock()
}

// noteWrite buffers one locally served write for the next access report.
func (b *Broker) noteWrite(user uint32) {
	b.reportMu.Lock()
	b.repWrites[user]++
	b.reportMu.Unlock()
}

// pushReport sends the buffered access aggregates to the leader. Delivery
// is best-effort: on failure the aggregates are dropped, and the leader
// simply sees a quieter interval — the same degradation the paper accepts
// for piggybacked statistics.
func (b *Broker) pushReport(leader *peerState) {
	b.reportMu.Lock()
	if len(b.repReads) == 0 && len(b.repWrites) == 0 {
		b.reportMu.Unlock()
		return
	}
	reads := make([]reportRead, 0, len(b.repReads))
	for k, n := range b.repReads {
		reads = append(reads, reportRead{user: k.user, server: k.server, count: n})
	}
	writes := make([]reportWrite, 0, len(b.repWrites))
	for u, n := range b.repWrites {
		writes = append(writes, reportWrite{user: u, count: n})
	}
	clear(b.repReads)
	clear(b.repWrites)
	b.reportMu.Unlock()
	_, _, _ = leader.conn.roundTrip(opAccessReport, encodeAccessReport(uint32(b.selfIdx), reads, writes))
}

// applyAccessReport folds a follower's interval aggregates into this
// broker's statistics, attributing each read to the reporting broker's
// network origin — the per-broker access-point costing of Algorithm 2: the
// same replica looks cheap to one front-end cluster and expensive to
// another, and the policy sees both. When this broker is the leader it
// also evaluates and applies a placement decision for each reported view,
// exactly as it does for its own reads.
func (b *Broker) applyAccessReport(sender int, reads []reportRead, writes []reportWrite) {
	t := b.table()
	now := time.Now().Unix()
	from := topology.MachineID(sender)
	for _, e := range reads {
		idx := int(e.server)
		if idx < 0 || idx >= len(t.conns) || e.count == 0 || e.user == membership.ReservedUser {
			continue
		}
		sh := b.shard(e.user)
		sh.mu.Lock()
		meta := b.metaLocked(t, sh, e.user, now)
		rep := meta.reps[idx]
		if rep == nil {
			// The replica set changed since the follower served these
			// reads; fold them into the replica now closest to it.
			serving := t.topo.ClosestOf(from, b.viewStateLocked(t, meta).Replicas)
			if serving == topology.NoMachine {
				sh.mu.Unlock()
				continue
			}
			idx = b.serverIdxOf(serving)
			rep = meta.reps[idx]
		}
		serving := b.machineOf(idx)
		rep.log.RecordReads(now, t.topo.OriginOf(serving, from), e.count)
		var decision viewpolicy.Decision
		if b.IsLeader() {
			decision = b.evaluateLocked(t, now, meta, b.viewStateLocked(t, meta), serving, rep)
		}
		sh.mu.Unlock()
		b.applyDecision(now, e.user, idx, decision)
	}
	for _, e := range writes {
		sh := b.shard(e.user)
		sh.mu.Lock()
		if meta, ok := sh.views[e.user]; ok {
			for _, rep := range meta.reps {
				rep.log.RecordWrites(now, e.count)
			}
		}
		sh.mu.Unlock()
	}
}

// pullPlacement fetches the leader's full placement table and merges it —
// the periodic anti-entropy pass that repairs deltas lost while a
// connection or broker was down.
func (b *Broker) pullPlacement(leader *peerState) {
	respType, body, err := leader.conn.roundTrip(opPlacementPull, nil)
	if err != nil || respType != respPlacement {
		return
	}
	entries, err := decodePlacementTable(body)
	if err != nil {
		return
	}
	for _, e := range entries {
		b.applyPlacementEntry(e.user, e.order)
	}
}

// placementEntries snapshots this broker's whole placement table for an
// anti-entropy response. Shard locks are taken one at a time.
func (b *Broker) placementEntries() []placementEntry {
	var entries []placementEntry
	for si := range b.shards {
		sh := &b.shards[si]
		sh.mu.Lock()
		for user, meta := range sh.views {
			entries = append(entries, placementEntry{user: user, order: append([]int(nil), meta.order...)})
		}
		sh.mu.Unlock()
	}
	return entries
}

// applyPlacementEntry overwrites user's local replica set with a peer's
// version of it: replicas the peer no longer lists are dropped, new ones
// gain fresh bookkeeping (their access history lives where the reads
// happen), and access logs of replicas present in both survive. Applying
// the same entry twice is a no-op, which makes both the delta broadcast
// and the anti-entropy pull idempotent.
func (b *Broker) applyPlacementEntry(user uint32, order []int) {
	t := b.table()
	clean := make([]int, 0, len(order))
	seen := make(map[int]bool, len(order))
	for _, idx := range order {
		// Indices beyond this broker's table belong to a membership epoch
		// it has not installed yet, and nil-connection indices are dead
		// tombstones (a delayed delta racing the membership change that
		// retired the slot); both are dropped here and repaired by the
		// next anti-entropy pull, after the epoch settles.
		if idx < 0 || idx >= len(t.conns) || t.conns[idx] == nil || seen[idx] {
			continue
		}
		seen[idx] = true
		clean = append(clean, idx)
	}
	if len(clean) == 0 {
		return
	}
	now := time.Now().Unix()
	sh := b.shard(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	meta, ok := sh.views[user]
	if !ok {
		meta = &viewMeta{reps: make(map[int]*replicaMeta, len(clean))}
		sh.views[user] = meta
	}
	for idx := range meta.reps {
		if !seen[idx] {
			delete(meta.reps, idx)
			t.load[idx].Add(-1)
			// A replica left its server: fence the leases that still
			// route to it, exactly as a locally decided removal would.
			meta.pv++
		}
	}
	for _, idx := range clean {
		if meta.reps[idx] == nil {
			meta.reps[idx] = b.newReplicaMeta(t, now, 0)
			t.load[idx].Add(1)
		}
	}
	meta.order = append(meta.order[:0], clean...)
}

// broadcast runs fn against every peer in the background, tracked so Close
// can wait for in-flight sends. Peers currently marked dead are skipped
// unless includeDead is set. Best-effort by design; every round trip is
// bounded by the peer timeout.
func (b *Broker) broadcast(includeDead bool, fn func(p *peerState)) {
	if b.nBrokers == 1 {
		return
	}
	for _, p := range b.peers {
		if p == nil || (!includeDead && !p.alive.Load()) {
			continue
		}
		b.bgMu.Lock()
		if b.bgDone {
			b.bgMu.Unlock()
			return
		}
		b.bg.Add(1)
		b.bgMu.Unlock()
		go func(p *peerState) {
			defer b.bg.Done()
			fn(p)
		}(p)
	}
}

// broadcastPlacement pushes user's current replica set to every alive peer
// (a missed delta is repaired by the receiver's next anti-entropy pull).
func (b *Broker) broadcastPlacement(user uint32) {
	if b.nBrokers == 1 {
		return
	}
	order := b.ReplicaSet(user)
	if len(order) == 0 {
		return
	}
	body := appendPlacementEntry(nil, user, order)
	b.broadcast(false, func(p *peerState) {
		_, _, _ = p.conn.roundTrip(opPlacementDelta, body)
	})
}

// batchEntriesPerFrame bounds one opPlacementBatch frame; even a
// cluster-wide rebalance stays far under the frame limit per send.
const batchEntriesPerFrame = 8192

// broadcastPlacementBatch pushes the current replica sets of many users
// to every alive peer in O(users / batchEntriesPerFrame) frames per peer
// — the bulk counterpart of broadcastPlacement, used by the rebalance and
// drain passes so a membership change does not burst one goroutine and
// round trip per moved user.
func (b *Broker) broadcastPlacementBatch(users []uint32) {
	if b.nBrokers == 1 || len(users) == 0 {
		return
	}
	var entries []placementEntry
	for _, u := range users {
		if order := b.ReplicaSet(u); len(order) > 0 {
			entries = append(entries, placementEntry{user: u, order: order})
		}
	}
	for start := 0; start < len(entries); start += batchEntriesPerFrame {
		chunk := entries[start:min(start+batchEntriesPerFrame, len(entries))]
		body := encodePlacementTable(chunk)
		b.broadcast(false, func(p *peerState) {
			_, _, _ = p.conn.roundTrip(opPlacementBatch, body)
		})
	}
}

// broadcastSyncWrite replicates one durably sequenced event to every
// peer's write-ahead log (per-broker WAL mode only). The send is attempted
// even to peers currently marked dead — a mislabeled but reachable peer
// must not silently miss history. Events a peer misses during a true
// outage are repaired by the catch-up half of the sync loop (syncWALs):
// the recovered peer compares per-origin cursors and pulls exactly the
// records it missed, without waiting for new user writes. A sampled tc
// rides the frames, so the trace shows every peer the write touched.
func (b *Broker) broadcastSyncWrite(user uint32, seq uint64, at int64, payload []byte, tc telemetry.TraceContext) {
	body := encodeSyncWrite(user, seq, at, payload)
	b.broadcast(true, func(p *peerState) {
		_, _, _ = p.conn.roundTripTraced(opSyncWrite, body, tc)
	})
}

// syncWALs is the WAL anti-entropy pass of a per-broker-WAL cluster: for
// every alive peer, compare per-origin applied cursors and pull the
// records this broker is missing. Each peer's catch-up runs detached (like
// the pings) so a slow peer never stalls the sync loop, with at most one
// in flight per peer.
func (b *Broker) syncWALs() {
	for _, p := range b.peers {
		if p == nil || !p.alive.Load() || !p.catching.CompareAndSwap(false, true) {
			continue
		}
		b.bgMu.Lock()
		if b.bgDone {
			b.bgMu.Unlock()
			p.catching.Store(false)
			return
		}
		b.bg.Add(1)
		b.bgMu.Unlock()
		go func(p *peerState) {
			defer b.bg.Done()
			defer p.catching.Store(false)
			b.catchUpFrom(p)
		}(p)
	}
}

// catchUpFrom closes this broker's WAL gaps against one peer: fetch the
// peer's per-origin cursors (exclusive applied high-water marks), and for
// every origin where the peer is ahead, page through opLogPull until
// caught up (or the per-pass page budget runs out — the next sync round
// continues). Pulled records flow through ApplyReplicated, which is
// idempotent and appends them to this broker's own log; the cursor is
// advanced past each processed page even when the store declines
// individual records (below a capped view's floor), so no page is ever
// re-pulled. An empty page while the peer's cursor is still ahead means
// the gap fell off the peer's capped views and cannot be recovered from
// it — the cursor jumps to the peer's mark so the exchange converges
// instead of re-pulling the unservable gap every round.
func (b *Broker) catchUpFrom(p *peerState) {
	respType, body, err := p.conn.roundTrip(opLogCursors, nil)
	if err != nil || respType != respLogCursors {
		return
	}
	theirs, err := decodeLogCursors(body)
	if err != nil {
		return
	}
	mine := b.store.Cursors()
	for origin, peerMark := range theirs {
		from := mine[origin]
		for round := 0; from < peerMark && round < maxPullRounds; round++ {
			respType, body, err := p.conn.roundTrip(opLogPull, encodeLogPull(origin, from, maxPullRecords))
			if err != nil || respType != respLogRecords {
				return
			}
			recs, err := decodeLogRecords(body)
			if err != nil {
				return
			}
			if len(recs) == 0 {
				b.store.AdvanceCursor(origin, peerMark)
				break
			}
			for _, r := range recs {
				applied, err := b.store.ApplyReplicated(r)
				if err != nil {
					return
				}
				if applied {
					// Concurrent catch-up against another peer may already
					// have delivered this record; count each miss once.
					b.catchup.Add(1)
					if r.User == membership.ReservedUser {
						// A membership transition this broker slept
						// through; install it (stale epochs are ignored).
						b.applyMembershipPayload(r.Payload)
					}
				}
			}
			from = recs[len(recs)-1].Seq + 1
			b.store.AdvanceCursor(origin, from)
		}
	}
}
