// Quickstart: the public pkg/dynasore API in ~60 lines. Open an in-process
// DynaSoRe deployment (an Engine: cache servers and a broker in this
// process, served through an embedded network client), publish and read
// feeds through the paper's Read(u, L)/Write(u) interface (§3.1), then
// Dial the same broker with a second client, as a remote program would.
// Both are the one ClusterClient behind the Store interface, speaking the
// cluster's multiplexed wire protocol.
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
	// persistent store in a temp dir, and a client connected to the broker.
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
	fmt.Println("feed read through the Engine's client:")
	printFeed([]uint32{1, 2, 3}, views)

	// A second client of the same cluster: requests carry IDs, so many of
	// them multiplex concurrently over each pooled connection.
	client, err := dynasore.Dial(ctx, engine.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	views, err = client.Read(ctx, []uint32{1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Printf("feed read through a second client of broker %s:\n", engine.Addr())
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
