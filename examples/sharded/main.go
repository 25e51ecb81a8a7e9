// Sharded demonstrates the key-sharded universal construction through
// the public generic API: a 3-replica counter-map cluster on a live
// goroutine transport with 4 shards per replica, hammered by
// concurrent writers on different keys. Each shard runs its own copy
// of Algorithm 1 — own log, own engine — on the process's one Lamport
// clock, so a keyed read touches one shard, while every per-key
// guarantee of the paper (wait-freedom, strong update consistency)
// holds per shard and the merged read is explainable by one total
// order of all updates.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"sync"

	"updatec"
)

func main() {
	const (
		n       = 3
		shards  = 4
		writers = 8
		perW    = 500
	)
	keys := []string{"page:home", "page:docs", "page:blog", "api:list",
		"api:get", "api:put", "cart:add", "cart:drop"}

	cluster, maps, err := updatec.New(n, updatec.CounterMapObject(),
		updatec.WithShards(shards))
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	fmt.Printf("%d replicas x %d shards; %d writers, %d increments each\n",
		n, cluster.Shards(), writers, perW)
	for _, k := range keys {
		fmt.Printf("  key %-10q -> shard %d\n", k, cluster.ShardOf(k))
	}

	// Writers spread over replicas and keys; every increment is
	// wait-free and is broadcast tagged with its key's shard.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := maps[w%n]
			for i := 0; i < perW; i++ {
				m.Inc(keys[(w+i)%len(keys)])
			}
		}(w)
	}
	wg.Wait()
	cluster.Settle() // let every shard mailbox empty

	fmt.Println("\nafter delivery, keyed reads (served by one shard each):")
	for _, k := range keys[:4] {
		fmt.Printf("  %-10s = %d\n", k, maps[1].Value(k))
	}

	fmt.Println("\nmerged whole-state read (per-shard states folded together):")
	fmt.Printf("  replica 0: %v\n", maps[0].All())

	total := int64(0)
	for _, k := range keys {
		total += maps[0].Value(k)
	}
	fmt.Printf("\nconverged: %v, total increments accounted for: %d/%d\n",
		cluster.Converged(), total, writers*perW)
	fmt.Println("each shard reached its state by a total order of that shard's")
	fmt.Println("updates; interleaving those orders is a single sequential")
	fmt.Println("execution, so the merged state needs no conflict resolution.")
}
