package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Concurrent writers on one replica, through the one write step
// (UpdateTimestamped). Each suite runs with and without stability-based
// compaction: GC is the setting in which the order a replica sends its
// stamps in matters — a peer compacts past the highest stamp it has seen
// from a sender, so a lower one arriving later would land below the
// horizon. Exact states are asserted where the workload makes them
// unique (counter sums, commutative kinds), convergence elsewhere.

// TestLockFreeConcurrentOracleCounter races real writers on the live
// transport and checks the one state every interleaving must reach: the
// counter's final value is the exact sum of everything issued, identical
// across replicas, with and without GC. Concurrent readers hammer the
// shared-lock query path while the writers run; under -race this is the
// memory-safety gate for the write step.
func TestLockFreeConcurrentOracleCounter(t *testing.T) {
	const n, perWriter = 3, 400
	for _, writers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			var want int64
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					want += int64(w + i%5)
				}
			}
			for _, gc := range []bool{false, true} {
				t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
					net := transport.NewLive(n)
					defer net.Close()
					reps := Cluster(n, spec.Counter(), net, ClusterOptions{GC: gc})
					var wg sync.WaitGroup
					stop := make(chan struct{})
					// Two readers: one queries, one snapshots version/state
					// pairs.
					for rd := 0; rd < 2; rd++ {
						wg.Add(1)
						go func(rd int) {
							defer wg.Done()
							for {
								select {
								case <-stop:
									return
								default:
								}
								if rd == 0 {
									reps[0].Query(spec.Read{})
								} else {
									reps[0].ReadStateAt(func(spec.State, uint64) {})
									reps[1].Version()
								}
							}
						}(rd)
					}
					var ww sync.WaitGroup
					for w := 0; w < writers; w++ {
						ww.Add(1)
						go func(w int) {
							defer ww.Done()
							for i := 0; i < perWriter; i++ {
								reps[0].Update(spec.Add{N: int64(w + i%5)})
							}
						}(w)
					}
					ww.Wait()
					close(stop)
					wg.Wait()
					net.Drain()
					for p, r := range reps {
						if got := int64(r.Query(spec.Read{}).(spec.CtrVal)); got != want {
							t.Fatalf("replica %d value %d, want %d", p, got, want)
						}
					}
				})
			}
		})
	}
}

// TestLockFreeConcurrentConvergesAllKinds races 4 writers of random
// updates per object kind on the live transport and requires every
// replica to converge, with and without GC; for kinds whose updates
// commute the two runs must also agree, since they fold the same update
// multiset.
func TestLockFreeConcurrentConvergesAllKinds(t *testing.T) {
	const n, writers, perWriter = 3, 4, 60
	for _, name := range spec.Names() {
		adt, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			states := map[bool]string{}
			for _, gc := range []bool{false, true} {
				t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) {
					net := transport.NewLive(n)
					defer net.Close()
					reps := Cluster(n, adt, net, ClusterOptions{GC: gc, GCEvery: 8})
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(w)*389 + 11))
							for i := 0; i < perWriter; i++ {
								reps[w%n].Update(randomUpdateFor(adt, rng))
							}
						}(w)
					}
					wg.Wait()
					net.Drain()
					want := reps[0].StateKey()
					for p, r := range reps[1:] {
						if got := r.StateKey(); got != want {
							t.Fatalf("replica %d diverged: %s vs %s", p+1, got, want)
						}
					}
					states[gc] = want
				})
			}
			if spec.IsCommutative(adt) && states[false] != states[true] {
				t.Fatalf("commutative kind folded differently with GC: %s, without %s", states[true], states[false])
			}
		})
	}
}

// TestLockFreeReadYourWrites: an Update is visible to the next read on
// the same replica — for each of several goroutines writing through it,
// a read after its k-th update counts at least its own k.
func TestLockFreeReadYourWrites(t *testing.T) {
	const writers, perWriter = 4, 50
	net := transport.NewLive(2)
	defer net.Close()
	reps := Cluster(2, spec.Counter(), net, ClusterOptions{GC: true})
	var wg sync.WaitGroup
	var fail atomic.Value
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= perWriter; k++ {
				reps[0].Update(spec.Add{N: 1})
				if got := int64(reps[0].Query(spec.Read{}).(spec.CtrVal)); got < int64(k) {
					fail.CompareAndSwap(nil, fmt.Sprintf("after %d own updates read %d", k, got))
				}
			}
		}()
	}
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestLockFreeUpdateTimestamped pins the synchronous path sessions
// depend on: under concurrent writers UpdateTimestamped returns distinct
// stamps carrying the caller's process id, increasing per caller, and the
// update is in the log when it returns. A session's write is then
// readable through the session.
func TestLockFreeUpdateTimestamped(t *testing.T) {
	const writers, perWriter = 4, 200
	net := transport.NewLive(2)
	defer net.Close()
	reps := Cluster(2, spec.Counter(), net, ClusterOptions{})
	stamps := make([][]clock.Timestamp, writers)
	var wg sync.WaitGroup
	for w := range stamps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				stamps[w] = append(stamps[w], reps[1].UpdateTimestamped(spec.Add{N: 2}))
			}
		}(w)
	}
	wg.Wait()
	seen := map[clock.Timestamp]bool{}
	for w, ts := range stamps {
		for i, s := range ts {
			if s.Proc != 1 {
				t.Fatalf("writer %d: stamp proc %d, want 1", w, s.Proc)
			}
			if i > 0 && s.Clock <= ts[i-1].Clock {
				t.Fatalf("writer %d: stamp %d not above its previous %d", w, s.Clock, ts[i-1].Clock)
			}
			if seen[s] {
				t.Fatalf("stamp %s issued twice", s)
			}
			seen[s] = true
		}
	}
	if got := int64(reps[1].Query(spec.Read{}).(spec.CtrVal)); got != 2*writers*perWriter {
		t.Fatalf("read %d after %d synchronous updates of 2", got, writers*perWriter)
	}
	sreps := ShardedCluster(2, 1, spec.Counter(), transport.NewSim(transport.SimOptions{N: 2, Seed: 4}), ClusterOptions{})
	sess := NewShardedSession(sreps[1])
	sess.Update(spec.Add{N: 1})
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatal("session read-your-writes failed")
	}
}

// countingCounterSpec wraps the counter spec and counts DecodeUpdate
// calls — the probe for the self-delivery fast path below.
type countingCounterSpec struct {
	spec.CounterSpec
	decodes *atomic.Uint64
}

func (c countingCounterSpec) DecodeUpdate(b []byte) (spec.Update, error) {
	c.decodes.Add(1)
	return c.CounterSpec.DecodeUpdate(b)
}

// TestLoopbackSkipsSelfDecode guards the write path's handling of the
// transport's inline self-delivery: the replica landed its update in the
// step that stamped it, so the broadcast coming back is dropped unread —
// a writer performs zero update decodes for its own traffic, however
// many goroutines write through it (the loopback stash this replaces
// fell back to decoding whenever two writers raced); only its peer
// decodes.
func TestLoopbackSkipsSelfDecode(t *testing.T) {
	for _, writers := range []int{1, 4} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			net := transport.NewLive(2)
			defer net.Close()
			var dec0, dec1 atomic.Uint64
			r0 := NewReplica(Config{ID: 0, N: 2, ADT: countingCounterSpec{decodes: &dec0}, Net: net})
			NewReplica(Config{ID: 1, N: 2, ADT: countingCounterSpec{decodes: &dec1}, Net: net})
			const ops = 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						r0.Update(spec.Add{N: 1})
					}
				}()
			}
			wg.Wait()
			net.Drain()
			total := uint64(writers * ops)
			if got := dec0.Load(); got != 0 {
				t.Fatalf("writer decoded %d of its own payloads, want 0", got)
			}
			if got := dec1.Load(); got != total {
				t.Fatalf("peer decoded %d payloads, want %d", got, total)
			}
			if got := int64(r0.Query(spec.Read{}).(spec.CtrVal)); got != int64(total) {
				t.Fatalf("writer state %d, want %d", got, total)
			}
		})
	}
}
