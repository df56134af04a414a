package scenario

import (
	"fmt"
	"time"

	"dynasore/internal/cluster"
	"dynasore/internal/membership"
)

// Scenarios returns the built-in acceptance timelines. Each call builds
// fresh Scenario values (their steps may carry per-run closure state), so a
// value from one call should drive at most one Execute at a time.
//
// The first four scenarios are the paper's motivating regimes:
//
//   - flash-crowd: one celebrity user is read-stormed through the
//     direct-read fast path; the placement policy must replicate the hot
//     view and the direct-hit ratio must clear its floor.
//   - diurnal-shift: traffic enters through one zone's broker, then "the
//     sun moves" and it enters through another; placement must follow.
//   - rolling-upgrade: every cache server is drained to zero replicas,
//     removed, and replaced while load runs — with zero failed reads.
//   - broker-crash-rebalance: the leader broker is killed right after it
//     admits a new cache server; the survivors elect, converge on the new
//     epoch, and the crashed broker recovers it from its WAL on restart.
//   - steady-telemetry: fault-free mixed load through every broker, then the
//     telemetry accounting invariant — the broker tier's op histograms must
//     have observed every acknowledged client op exactly once.
//
// All of them additionally assert the harness's continuous invariants: no
// lost acknowledged writes, no wrong-version reads, epoch monotonicity.
func Scenarios() []Scenario {
	return []Scenario{
		flashCrowd(),
		diurnalShift(),
		rollingUpgrade(),
		brokerCrashRebalance(),
		steadyTelemetry(),
	}
}

// leaderBroker resolves the current leader, waiting out elections.
func leaderBroker(r *Run) (*cluster.Broker, error) {
	var b *cluster.Broker
	err := r.WaitUntil(10*time.Second, "an elected leader", func() bool {
		if i := r.Rig.Leader(); i >= 0 {
			b = r.Rig.Broker(i)
			return true
		}
		return false
	})
	return b, err
}

func flashCrowd() Scenario {
	return Scenario{
		Name:        "flash-crowd",
		Description: "read storm on one celebrity user through the direct-read fast path; placement must replicate the hot view",
		Users:       2000,
		Brokers:     3,
		Servers:     3,
		Direct:      true,
		HitFloor:    0.15,
		Steps: []Step{
			{Name: "seed the celebrity's view", Do: func(r *Run) error {
				celeb := uint32(r.Stream.Celebrity())
				for i := 0; i < 5; i++ {
					if err := r.Write(celeb, []byte(fmt.Sprintf("celebrity-post-%d", i))); err != nil {
						return err
					}
				}
				return nil
			}},
			{Name: "baseline feed traffic", Do: func(r *Run) error {
				return r.Load(Mix{Ops: 600, WriteFrac: 0.1, Hot: -1})
			}},
			{Name: "flash crowd gathers (broker path)", Do: func(r *Run) error {
				// The crowd's reads must be visible to the placement policy,
				// and direct reads bypass the broker tier entirely — so the
				// storm that generates the replication signal goes broker-path.
				celeb := r.Stream.Celebrity()
				return r.Load(Mix{Ops: 2000, WriteFrac: 0.05, Hot: int64(celeb), HotFrac: 0.8, BrokerPath: true})
			}},
			{Name: "placement replicated the hot view", Do: func(r *Run) error {
				celeb := uint32(r.Stream.Celebrity())
				leader, err := leaderBroker(r)
				if err != nil {
					return err
				}
				return r.WaitUntil(15*time.Second, "celebrity view replicated beyond one copy", func() bool {
					return leader.ReplicaCount(celeb) >= 2
				})
			}},
			{Name: "crowd served by the direct fast path", Do: func(r *Run) error {
				celeb := r.Stream.Celebrity()
				return r.Load(Mix{Ops: 2000, WriteFrac: 0.05, Hot: int64(celeb), HotFrac: 0.8})
			}},
		},
	}
}

func diurnalShift() Scenario {
	return Scenario{
		Name:        "diurnal-shift",
		Description: "feed traffic moves from zone 0's broker to zone 2's; replica placement must follow the sun",
		Users:       1500,
		Brokers:     3,
		Servers:     3,
		Steps: []Step{
			{Name: "seed the hot view", Do: func(r *Run) error {
				return r.Write(uint32(r.Stream.Celebrity()), []byte("sunrise"))
			}},
			{Name: "morning: traffic through zone 0", Do: func(r *Run) error {
				celeb := r.Stream.Celebrity()
				return r.Load(Mix{Ops: 1500, WriteFrac: 0.1, Hot: int64(celeb), HotFrac: 0.5, Via: ViaBroker(0)})
			}},
			{Name: "evening: traffic through zone 2", Do: func(r *Run) error {
				celeb := r.Stream.Celebrity()
				migratedBefore := int64(0)
				if i := r.Rig.Leader(); i >= 0 {
					st := r.Rig.Broker(i).Stats()
					migratedBefore = st.Migrated + st.Replicated
				}
				evening := Mix{Ops: 2500, WriteFrac: 0.1, Hot: int64(celeb), HotFrac: 0.5, Via: ViaBroker(2)}
				if err := r.Load(evening); err != nil {
					return err
				}
				leader, err := leaderBroker(r)
				if err != nil {
					return err
				}
				// The evening's traffic keeps coming while placement
				// catches up. A zone-2 replica created late in the burst
				// above has served few reads when the burst ends, and a
				// maintenance pass then rightly removes a replica nobody
				// reads: with idle clients, the verdict would turn on how
				// fast the cluster served the burst.
				evening.Ops = 0
				stopLoad, waitLoad := r.StartLoad(evening)
				// Placement followed the sun when the hot view holds a
				// replica on a zone-2 cache server and the policy actually
				// moved or created replicas after the shift.
				err = r.WaitUntil(15*time.Second, "a zone-2 replica of the hot view", func() bool {
					lead := r.Rig.Leader()
					if lead < 0 {
						return false
					}
					st := r.Rig.Broker(lead).Stats()
					if st.Migrated+st.Replicated <= migratedBefore {
						return false
					}
					for _, idx := range leader.ReplicaSet(uint32(celeb)) {
						if idx < r.Rig.NumServers() && r.Rig.ServerPos(idx).Zone == 2 {
							return true
						}
					}
					return false
				})
				stopLoad()
				if werr := waitLoad(); err == nil {
					err = werr
				}
				return err
			}},
		},
	}
}

func rollingUpgrade() Scenario {
	var (
		stopLoad func()
		waitLoad func() error
	)
	return Scenario{
		Name:        "rolling-upgrade",
		Description: "every cache server is drained, removed, and replaced under live load with zero failed reads",
		Users:       1200,
		Brokers:     2,
		Servers:     3,
		Steps: []Step{
			{Name: "start continuous load", Do: func(r *Run) error {
				if err := r.Load(Mix{Ops: 400, WriteFrac: 0.2}); err != nil {
					return err
				}
				stopLoad, waitLoad = r.StartLoad(Mix{WriteFrac: 0.1})
				return nil
			}},
			{Name: "roll every cache server", Do: func(r *Run) error {
				for j := 0; j < 3; j++ {
					pos := r.Rig.ServerPos(j)
					if err := r.Rig.DrainServer(j); err != nil {
						return fmt.Errorf("drain server %d: %w", j, err)
					}
					if err := r.WaitUntil(30*time.Second,
						fmt.Sprintf("server %d drained to zero replicas", j), func() bool {
							return r.Rig.ServerReplicas(j) == 0
						}); err != nil {
						return err
					}
					if err := r.Rig.RemoveServer(j); err != nil {
						return fmt.Errorf("remove server %d: %w", j, err)
					}
					replacement, err := r.Rig.SpawnServer(pos)
					if err != nil {
						return err
					}
					if err := r.Rig.AddServer(replacement); err != nil {
						return fmt.Errorf("add replacement for server %d: %w", j, err)
					}
					r.Logf("[rolling-upgrade] server %d replaced by slot %d", j, replacement)
				}
				return nil
			}},
			{Name: "stop load; upgrade completed with zero failed reads", Do: func(r *Run) error {
				stopLoad()
				if err := waitLoad(); err != nil {
					return err
				}
				if n := r.FailedReads(); n != 0 {
					return fmt.Errorf("rolling upgrade dropped %d reads", n)
				}
				leader, err := leaderBroker(r)
				if err != nil {
					return err
				}
				active := 0
				for _, s := range leader.Membership().View.Servers {
					if s.State == membership.StateActive {
						active++
					}
				}
				if active != 3 {
					return fmt.Errorf("membership converged on %d active servers, want 3", active)
				}
				return nil
			}},
		},
	}
}

func steadyTelemetry() Scenario {
	return Scenario{
		Name:        "steady-telemetry",
		Description: "fault-free mixed load; the broker tier's telemetry must account for every acknowledged op exactly once",
		Users:       1000,
		Brokers:     2,
		Servers:     2,
		Steps: []Step{
			{Name: "traffic pinned to each broker in turn", Do: func(r *Run) error {
				// Route one phase through each broker explicitly so both end
				// up with non-zero op counts — the exactly-once check below
				// would hold vacuously for a broker that saw no traffic.
				for i := 0; i < r.Rig.NumBrokers(); i++ {
					if err := r.Load(Mix{Ops: 500, WriteFrac: 0.2, Hot: -1, Via: ViaBroker(i)}); err != nil {
						return err
					}
				}
				return nil
			}},
			{Name: "failover-client traffic", Do: func(r *Run) error {
				return r.Load(Mix{Ops: 600, WriteFrac: 0.25, Hot: -1})
			}},
			{Name: "telemetry accounts for every op exactly once", Do: func(r *Run) error {
				// No faults were injected, so no client retried and no call
				// failed: the number of ops the broker tier's histograms
				// observed must equal the number of calls the clients
				// completed — neither lost (an unobserved op) nor doubled (a
				// double-counted one). Replicated writes don't disturb the
				// balance: a peer applying a replica records it under the
				// separate sync_write label.
				if fr, fw := r.failedR.Load(), r.failedW.Load(); fr != 0 || fw != 0 {
					return fmt.Errorf("fault-free run had %d failed reads, %d failed writes", fr, fw)
				}
				reads, writes := r.reads.Load(), r.writes.Load()
				if got := r.Rig.BrokerOpCount("read"); got != reads {
					return fmt.Errorf("broker tier observed %d reads, clients completed %d", got, reads)
				}
				if got := r.Rig.BrokerOpCount("write"); got != writes {
					return fmt.Errorf("broker tier observed %d writes, clients acked %d", got, writes)
				}
				for i := 0; i < r.Rig.NumBrokers(); i++ {
					tel := r.Rig.BrokerTelemetry(i)
					h := tel.Histogram("dynasore_broker_op_seconds", "Broker op latency by operation.", "op", "read")
					if h.Snapshot().Count == 0 {
						return fmt.Errorf("broker %d observed no reads despite pinned traffic", i)
					}
				}
				r.Logf("[steady-telemetry] accounted: %d reads, %d writes across %d brokers",
					reads, writes, r.Rig.NumBrokers())
				return nil
			}},
		},
	}
}

func brokerCrashRebalance() Scenario {
	crashed := -1
	return Scenario{
		Name:        "broker-crash-rebalance",
		Description: "the leader broker is killed right after admitting a new cache server; epoch converges and the crashed broker recovers it on restart",
		Users:       1500,
		Brokers:     3,
		Servers:     2,
		Steps: []Step{
			{Name: "warm traffic", Do: func(r *Run) error {
				return r.Load(Mix{Ops: 1000, WriteFrac: 0.2})
			}},
			{Name: "add a server, then kill the leader mid-rebalance", Do: func(r *Run) error {
				// Quiesce replication first: every acknowledged write must be
				// on a surviving node before the originating broker dies.
				r.Rig.MaintainAll()
				slot, err := r.Rig.SpawnServer(cluster.Position{Zone: 1, Rack: 2})
				if err != nil {
					return err
				}
				if err := r.Rig.AddServer(slot); err != nil {
					return err
				}
				crashed = r.Rig.Leader()
				if crashed < 0 {
					return fmt.Errorf("no leader to crash")
				}
				return r.Rig.KillBroker(crashed)
			}},
			{Name: "survivors elect and converge on the new epoch", Do: func(r *Run) error {
				return r.WaitUntil(15*time.Second, "surviving brokers on one epoch with a leader", func() bool {
					lead := r.Rig.Leader()
					if lead < 0 || lead == crashed {
						return false
					}
					var epoch uint64
					for i := 0; i < r.Rig.NumBrokers(); i++ {
						b := r.Rig.Broker(i)
						if b == nil {
							continue
						}
						if epoch == 0 {
							epoch = b.Epoch()
						} else if b.Epoch() != epoch {
							return false
						}
					}
					return epoch >= 2
				})
			}},
			{Name: "traffic through the survivors", Do: func(r *Run) error {
				return r.Load(Mix{Ops: 1500, WriteFrac: 0.2})
			}},
			{Name: "restart the crashed broker; it recovers the epoch", Do: func(r *Run) error {
				if err := r.Rig.RestartBroker(crashed); err != nil {
					return err
				}
				return r.WaitUntil(15*time.Second, "restarted broker caught up to the cluster epoch", func() bool {
					b := r.Rig.Broker(crashed)
					lead := r.Rig.Leader()
					return b != nil && lead >= 0 && b.Epoch() == r.Rig.Broker(lead).Epoch() && b.Epoch() >= 2
				})
			}},
			{Name: "full-strength traffic", Do: func(r *Run) error {
				return r.Load(Mix{Ops: 500, WriteFrac: 0.1})
			}},
		},
	}
}
