// Quickstart: the public pkg/dynasore API in ~60 lines. Open an in-process
// DynaSoRe cluster (the Engine backend), publish and read feeds through the
// paper's Read(u, L)/Write(u) interface (§3.1), then connect a network
// Client speaking the cluster's multiplexed wire protocol to the same broker —
// both backends behind the one Store interface.
//
// For the paper's simulation experiments (traffic vs. static placements),
// see cmd/dynasore-sim and examples/flashcrowd.
package main

import (
	"context"
	"fmt"
	"log"

	"dynasore/pkg/dynasore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// An in-process cluster: three cache servers, one broker, WAL-backed
	// persistent store in a temp dir.
	engine, err := dynasore.Open(dynasore.EngineConfig{CacheServers: 3})
	if err != nil {
		return err
	}
	defer engine.Close()

	// Producers publish through the Store interface.
	var store dynasore.Store = engine
	for user := uint32(1); user <= 3; user++ {
		for post := 0; post < 2; post++ {
			msg := fmt.Sprintf("user %d, post %d", user, post)
			if _, err := store.Write(ctx, user, []byte(msg)); err != nil {
				return err
			}
		}
	}

	// Read(u, L): one call fetches the whole feed.
	views, err := store.Read(ctx, []uint32{1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Println("feed read through the in-process Engine:")
	printFeed([]uint32{1, 2, 3}, views)

	// The same cluster over TCP: requests carry IDs, so many of them
	// multiplex concurrently over each pooled connection.
	client, err := dynasore.Dial(ctx, engine.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	views, err = client.Read(ctx, []uint32{1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Printf("feed read through the v2 network Client (broker %s):\n", engine.Addr())
	printFeed([]uint32{1, 2, 3}, views)

	st, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("broker stats: reads=%d writes=%d misses=%d\n", st.Reads, st.Writes, st.Misses)
	return nil
}

func printFeed(targets []uint32, views []dynasore.View) {
	for i, v := range views {
		for _, e := range v.Events {
			fmt.Printf("  [%d] %s\n", targets[i], e)
		}
	}
}
