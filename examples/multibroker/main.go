// Multibroker: the paper's broker-per-front-end-cluster deployment in one
// process. Three brokers anchored in three zones share four cache servers;
// each broker keeps its own checkpointed write-ahead log, converged by
// write replication. A ClusterClient spreads reads across the broker tier
// and pins each user's writes to a stable broker. The elected leader
// (smallest position) runs the placement policy over every broker's
// traffic, so a view hammered through the zone-2 broker grows a replica in
// zone 2 — visible in every broker's placement table. Finally the
// durability subsystem is put through its paces: one broker is killed,
// writes continue without it, and on restart it recovers from its parting
// checkpoint and pulls exactly the records it missed from its peers — no
// new user writes needed.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"dynasore/pkg/dynasore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Four cache servers: one per zone 0..2, a fourth in zone 0.
	var serverAddrs []string
	var serverPos []dynasore.Position
	for i := 0; i < 4; i++ {
		s, err := dynasore.ListenCacheServer("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer s.Close()
		serverAddrs = append(serverAddrs, s.Addr())
		serverPos = append(serverPos, dynasore.Position{Zone: i % 3, Rack: 1})
	}

	// Reserve the brokers' listeners first so every broker can be given
	// the full peer list. Each broker owns a checkpointed per-broker WAL;
	// writes replicate between the logs.
	dir, err := os.MkdirTemp("", "dynasore-multibroker")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var lns []net.Listener
	var peers []dynasore.BrokerPeer
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		peers = append(peers, dynasore.BrokerPeer{
			Addr: ln.Addr().String(),
			Pos:  dynasore.Position{Zone: i, Rack: 0},
		})
	}
	startBroker := func(i int, ln net.Listener) (*dynasore.Broker, error) {
		return dynasore.ListenBroker(dynasore.BrokerConfig{
			Listener:         ln,
			CacheServerAddrs: serverAddrs,
			DataDir:          filepath.Join(dir, fmt.Sprintf("broker-%d", i)),
			Placement:        &dynasore.Placement{Broker: peers[i].Pos, Servers: serverPos},
			Peers:            peers,
			Self:             i,
			SyncEvery:        100 * time.Millisecond,
			CheckpointEvery:  time.Second,
			CompactAfter:     4,
			Policy:           dynasore.PolicyConfig{AdmissionEpsilon: 100},
		})
	}
	var brokers []*dynasore.Broker
	var addrs []string
	for i := range peers {
		b, err := startBroker(i, lns[i])
		if err != nil {
			return err
		}
		defer b.Close()
		brokers = append(brokers, b)
		addrs = append(addrs, b.Addr())
	}
	fmt.Printf("3 brokers up, leader is broker %d (smallest position)\n", brokers[0].Leader())

	// One client for the whole broker tier.
	client, err := dynasore.DialCluster(ctx, addrs)
	if err != nil {
		return err
	}
	defer client.Close()
	for u := uint32(0); u < 9; u++ {
		if _, err := client.Write(ctx, u, []byte(fmt.Sprintf("hello from user %d", u))); err != nil {
			return err
		}
	}
	views, err := client.Read(ctx, []uint32{0, 4, 8})
	if err != nil {
		return err
	}
	fmt.Printf("read %d views through the cluster client\n", len(views))

	// Hammer one user through the zone-2 broker only: its access reports
	// make the leader replicate the view into zone 2, and the placement
	// push converges every broker's placement table. Pick a user
	// homed outside zone 2 (homes are rendezvous-hashed, not modulo).
	hot := uint32(0)
	for brokers[0].HomeOf(hot)%3 == 2 {
		hot++
	}
	// Dial is DialCluster over one address: this client talks to the
	// zone-2 broker only.
	zone2, err := dynasore.Dial(ctx, brokers[2].Addr())
	if err != nil {
		return err
	}
	defer zone2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) &&
		(len(brokers[0].ReplicaSet(hot)) < 2 || len(brokers[2].ReplicaSet(hot)) < 2) {
		if _, err := zone2.Read(ctx, []uint32{hot}); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("replica set of user %d: leader sees %v, zone-2 broker sees %v\n",
		hot, brokers[0].ReplicaSet(hot), brokers[2].ReplicaSet(hot))

	// Kill the zone-1 broker — its Close writes a parting checkpoint. The
	// cluster client fails over; the survivors keep serving, and the
	// writes below never reach broker 1's log.
	if err := brokers[1].Close(); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Write(ctx, 1, []byte(fmt.Sprintf("written while broker 1 was down #%d", i))); err != nil {
			return err
		}
	}
	views, err = client.Read(ctx, []uint32{1})
	if err != nil {
		return err
	}
	last := views[0].Events[len(views[0].Events)-1]
	fmt.Printf("after killing a broker: user 1 reads %q through the surviving tier\n", last)

	// Restart broker 1 on its old address and data directory: it loads
	// its checkpoint instead of replaying the whole WAL, then the catch-up
	// protocol (per-origin cursor exchange + pulls) delivers the five
	// writes it missed — with no new user traffic.
	ln, err := net.Listen("tcp", peers[1].Addr)
	if err != nil {
		return err
	}
	b1, err := startBroker(1, ln)
	if err != nil {
		return err
	}
	defer b1.Close()
	fromCkpt, replayed := b1.Recovery()
	fmt.Printf("broker 1 restarted: from checkpoint=%v, WAL records replayed=%d\n", fromCkpt, replayed)

	direct, err := dynasore.Dial(ctx, b1.Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	deadline = time.Now().Add(5 * time.Second)
	var st dynasore.Stats
	for time.Now().Before(deadline) {
		if st, err = direct.Stats(ctx); err != nil {
			return err
		}
		if st.CatchupRecords >= 5 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("broker 1 caught up: %d missed records pulled from peers, %d checkpoints, %d WAL segments compacted\n",
		st.CatchupRecords, st.Checkpoints, st.CompactedSegments)
	return nil
}
