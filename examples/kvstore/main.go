// Kvstore demonstrates the Algorithm 2 shared memory as a replicated
// key-value store on a deterministic simulated network: concurrent
// writes to the same key, a replica crash mid-run, a live resize of the
// key space from two shards to four, and survivor convergence. A write
// masks every older write to its key, so each replica's log keeps one
// entry per key, not one per write.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"

	"updatec"
)

func main() {
	const n = 4
	cluster, stores, err := updatec.New(n, updatec.MemoryObject(""), updatec.WithSeed(2026), updatec.WithShards(2))
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	fmt.Println("four replicas, two key shards each, accept writes concurrently (wait-free):")
	stores[0].Write("user:alice", "admin")
	stores[1].Write("user:alice", "viewer") // concurrent conflicting write
	stores[2].Write("user:bob", "editor")
	stores[3].Write("quota", "100")

	fmt.Println("  before delivery, each replica only sees its own writes:")
	for i, s := range stores {
		fmt.Printf("  replica %d: user:alice=%q\n", i, s.Read("user:alice"))
	}

	// Replica 3 crashes. Its quota write is already in the network and
	// will still reach everyone (reliable delivery); the replica
	// itself stops participating.
	cluster.Crash(3)
	fmt.Println("\nreplica 3 crashed; survivors keep going")

	stores[1].Write("quota", "250")
	cluster.Settle()

	// The key space grows to four shards while the cluster runs: every
	// replica moves each key's winning write to the shard that now owns
	// it, and writes keep landing where the new table routes them.
	if err := cluster.Resize(4); err != nil {
		panic(err)
	}
	fmt.Printf("\nresized live to %d shards per replica\n", cluster.Shards())
	for i := 0; i < 100; i++ {
		stores[i%3].Write("counter:hits", fmt.Sprint(i))
	}
	cluster.Settle()

	fmt.Println("\nafter delivery, the survivors agree on every register:")
	for i := 0; i < 3; i++ {
		fmt.Printf("  replica %d: user:alice=%q user:bob=%q quota=%q counter:hits=%q\n",
			i, stores[i].Read("user:alice"), stores[i].Read("user:bob"),
			stores[i].Read("quota"), stores[i].Read("counter:hits"))
	}
	fmt.Printf("\nconverged: %v\n", cluster.Converged())
	fmt.Println("the winning value of user:alice is decided by the update")
	fmt.Println("linearization (Lamport clock, process id tie-break) — the same")
	fmt.Println("order Algorithm 1 uses; the 100 writes to counter:hits left one")
	fmt.Println("winner in each replica's log, not 100 entries.")
}
