package updatec

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Stability-based compaction (WithGC) is sound only if every origin's
// updates reach a peer in stamp order: a receiver that has seen stamp 6
// from a sender may fold everything below it, so a stamp 5 arriving
// afterwards lands under the horizon. The write step therefore sends in
// the order it stamps, however many goroutines write through one handle.
// These tests pin that, and that an update goes out without a later
// operation on its replica having to push it.

// TestConcurrentGCWritersConverge: four goroutines per replica write one
// GC'd counter map on the live transport; every round must settle to the
// exact sum on every replica. -short (the race half of `make stress`)
// runs three rounds instead of twenty.
func TestConcurrentGCWritersConverge(t *testing.T) {
	const n, writers, perWriter, keys = 3, 4, 5000, 7
	rounds := 20
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		cluster, hs, err := New(n, CounterMapObject(), WithGC())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(h *CounterMap, w int) {
					defer wg.Done()
					for k := 0; k < perWriter; k++ {
						h.Add(fmt.Sprintf("k%d", (w+k)%keys), 1)
					}
				}(hs[i], w)
			}
		}
		wg.Wait()
		cluster.Settle()
		if !cluster.Converged() {
			cluster.Close()
			t.Fatalf("round %d: replicas diverged", round)
		}
		var total int64
		for k := 0; k < keys; k++ {
			total += hs[0].Value(fmt.Sprintf("k%d", k))
		}
		cluster.Close()
		if want := int64(n * writers * perWriter); total != want {
			t.Fatalf("round %d: sum over keys %d, want %d", round, total, want)
		}
	}
}

// TestSentWithoutHelp: one Update on replica 0 reaches replica 1 with
// nothing else happening on replica 0 — no read, no later write, no
// Settle — so a peer polling only its own handle sees it.
func TestSentWithoutHelp(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cluster, hs, err := New(3, CounterMapObject(), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			hs[0].Add("k", 1)
			deadline := time.Now().Add(5 * time.Second)
			for hs[1].Value("k") != 1 {
				if time.Now().After(deadline) {
					t.Fatal("replica 1 never saw replica 0's update")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
