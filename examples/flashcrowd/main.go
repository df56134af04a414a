// Flashcrowd: reproduce the paper's flash-event experiment (§4.6, Fig. 5)
// twice over. First in simulation through the experiment API — a random
// user suddenly gains followers, DynaSoRe replicates their view across the
// cluster, and evicts the extra replicas once the crowd leaves. Then live:
// an embedded pkg/dynasore cluster replicates a hammered view onto the
// broker-local cache server and evicts the replica when the crowd cools.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dynasore/internal/experiments"
	"dynasore/pkg/dynasore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	if err := runLive(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := experiments.Default()
	cfg.Users = 1000

	fc := experiments.DefaultFig5()
	fc.Days = 6
	fc.StartDay = 2
	fc.EndDay = 4
	fc.Repetitions = 3
	fc.Followers = 100

	fmt.Printf("flash crowd: +%d followers at day %d, removed at day %d (%d repetitions)\n",
		fc.Followers, fc.StartDay, fc.EndDay, fc.Repetitions)
	points, err := experiments.Figure5(cfg, fc)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatFigure5(points))

	// Summarize the three phases.
	var pre, during, post float64
	var nPre, nDuring, nPost int
	for _, p := range points {
		day := int(p.AtSeconds / 86400)
		switch {
		case day < fc.StartDay:
			pre += p.Replicas
			nPre++
		case day < fc.EndDay:
			during += p.Replicas
			nDuring++
		case day >= fc.EndDay+1: // give eviction a day, as in the paper
			post += p.Replicas
			nPost++
		}
	}
	fmt.Printf("mean replicas: before %.2f -> during flash %.2f -> after cooldown %.2f\n",
		pre/float64(nPre), during/float64(nDuring), post/float64(nPost))
	return nil
}

// runLive replays the flash crowd against a real in-process cluster via the
// public API: hammering one view makes the placement policy replicate it
// onto the broker's rack-local server; once reads stop, the maintenance
// pass drops the abandoned remote copy (negative utility, §3.2).
func runLive() error {
	ctx := context.Background()
	engine, err := dynasore.Open(dynasore.EngineConfig{
		CacheServers: 3,
		Preferred:    2,
		PolicyEvery:  300 * time.Millisecond,
		// A few reads inside the window are enough to replicate in a demo.
		Policy: dynasore.PolicyConfig{AdmissionEpsilon: 500},
	})
	if err != nil {
		return err
	}
	defer engine.Close()

	const celeb = uint32(1) // home server 1, so replication is visible
	if _, err := engine.Write(ctx, celeb, []byte("going viral")); err != nil {
		return err
	}
	fmt.Printf("\nlive flash crowd against broker %s:\n", engine.Addr())
	fmt.Printf("replicas of view %d before the crowd: %d\n", celeb, engine.ReplicaCount(celeb))

	// The crowd arrives: a burst of reads through the network client.
	client, err := dynasore.Dial(ctx, engine.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		if _, err := client.Read(ctx, []uint32{celeb}); err != nil {
			return err
		}
	}
	fmt.Printf("replicas during the flash: %d\n", engine.ReplicaCount(celeb))

	// The crowd leaves; the maintenance pass evicts the abandoned replica.
	deadline := time.Now().Add(5 * time.Second)
	for engine.ReplicaCount(celeb) > 1 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("replicas after cooldown: %d\n", engine.ReplicaCount(celeb))
	return nil
}
