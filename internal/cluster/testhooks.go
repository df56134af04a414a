package cluster

import "time"

// Deterministic scheduling hooks for the scenario harness and tests. The
// background loops (maintainLoop, syncLoop) fire on wall-clock tickers, which
// makes scripted timelines racy: a scenario that kills the leader "mid
// rebalance" needs the rebalance to actually be under way, not waiting on the
// next tick. These hooks run one pass of the same work synchronously, so a
// timeline can force the cluster through its state machine step by step.
// They are safe concurrently with the loops — each pass takes the same locks
// the loop-driven passes take.

// MaintainNow runs one synchronous maintenance pass — policy upkeep plus
// drain progress — exactly as a PolicyEvery tick would. It is a no-op on
// followers and closed brokers: only the elected leader evaluates the policy.
func (b *Broker) MaintainNow() {
	if b.closed.Load() || !b.IsLeader() {
		return
	}
	now := time.Now().Unix()
	b.maintainOnce(now)
	b.rebalanceMu.Lock()
	b.drainOnce(now)
	b.rebalanceMu.Unlock()
}

// SyncNow runs one synchronous peer-sync pass — cursor-exchange probes,
// election, access-report push and placement/membership anti-entropy —
// exactly as a SyncEvery tick would. It is a no-op on closed or
// single-broker clusters.
func (b *Broker) SyncNow() {
	if b.closed.Load() || b.nBrokers <= 1 {
		return
	}
	b.syncOnce()
}
