package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The lock-free intake engine's correctness gate: the mutex engine is
// the reference oracle. Both engines implement the same abstract
// operation — stamp the update, insert it into the log, broadcast it —
// so for a pinned set of (timestamp, update) pairs Theorem 1 promises
// one converged state, whichever engine produced it. The tests here
// pin the pairs deterministically where exact state equality is
// asserted, and fall back to convergence plus commutative-state
// equality where writers race for real (under -race).

// TestLockFreeMatchesMutexAllKinds is the deterministic oracle: for
// every registered object kind, a lock-free cluster fed a fixed update
// script converges to exactly the state the mutex cluster computes
// from the same script. Stamps are pinned by issuing every update
// before any delivery (each replica's clock then ticks only for its
// own operations, and the lock-free drain assigns the same consecutive
// stamps in announce order that the mutex path assigns at call time),
// so the two engines build the same timestamped update set and must
// fold to the same state.
func TestLockFreeMatchesMutexAllKinds(t *testing.T) {
	const n, updates = 3, 40
	for _, name := range spec.Names() {
		adt, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				run := func(lockfree bool) string {
					net := transport.NewSim(transport.SimOptions{N: n, Seed: seed})
					reps := Cluster(n, adt, net, ClusterOptions{LockFree: lockfree})
					rng := rand.New(rand.NewSource(seed*613 + 7))
					for k := 0; k < updates; k++ {
						reps[rng.Intn(n)].Update(randomUpdateFor(adt, rng))
					}
					for _, r := range reps {
						r.FlushIntake()
					}
					net.Quiesce()
					want := reps[0].StateKey()
					for p, r := range reps[1:] {
						if got := r.StateKey(); got != want {
							t.Fatalf("seed %d lockfree=%v: replica %d diverged: %s vs %s",
								seed, lockfree, p+1, got, want)
						}
					}
					return want
				}
				mutex := run(false)
				lf := run(true)
				if lf != mutex {
					t.Fatalf("seed %d: lock-free state %s, mutex oracle %s", seed, lf, mutex)
				}
			}
		})
	}
}

// TestLockFreeConcurrentOracleCounter races real writers on the live
// transport and checks the one state every interleaving must reach:
// the counter's final value is the exact sum of everything issued,
// identical across replicas and identical between engines. Concurrent
// readers hammer the shared-lock query path (forcing intake flushes
// mid-stream) while the writers announce; run under -race this is the
// memory-safety gate for the intake/drain/frame machinery.
func TestLockFreeConcurrentOracleCounter(t *testing.T) {
	const n = 3
	for _, writers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			perWriter := 400
			var want int64
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					want += int64(w + i%5)
				}
			}
			run := func(lockfree bool) int64 {
				net := transport.NewLive(n)
				defer net.Close()
				reps := Cluster(n, spec.Counter(), net, ClusterOptions{LockFree: lockfree})
				var wg sync.WaitGroup
				stop := make(chan struct{})
				// Two readers: one queries (flushing the intake under
				// contention), one snapshots version/state pairs.
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
				for _, r := range reps {
					r.FlushIntake()
				}
				net.Drain()
				first := int64(reps[0].Query(spec.Read{}).(spec.CtrVal))
				for p, r := range reps[1:] {
					if got := int64(r.Query(spec.Read{}).(spec.CtrVal)); got != first {
						t.Fatalf("lockfree=%v: replica %d value %d, replica 0 %d",
							lockfree, p+1, got, first)
					}
				}
				return first
			}
			if got := run(true); got != want {
				t.Fatalf("lock-free sum %d, want %d", got, want)
			}
			if got := run(false); got != want {
				t.Fatalf("mutex sum %d, want %d", got, want)
			}
		})
	}
}

// TestLockFreeConcurrentConvergesAllKinds races 4 writers of random
// updates per object kind on the live transport and requires every
// replica of the lock-free cluster to converge; for kinds whose
// updates commute (counter, g-set, counter-map) the converged state
// must additionally equal the mutex cluster's, since the same update
// multiset folds to the same state in any order.
func TestLockFreeConcurrentConvergesAllKinds(t *testing.T) {
	const n, writers, perWriter = 3, 4, 60
	for _, name := range spec.Names() {
		adt, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			run := func(lockfree bool) string {
				net := transport.NewLive(n)
				defer net.Close()
				reps := Cluster(n, adt, net, ClusterOptions{LockFree: lockfree})
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
				for _, r := range reps {
					r.FlushIntake()
				}
				net.Drain()
				want := reps[0].StateKey()
				for p, r := range reps[1:] {
					if got := r.StateKey(); got != want {
						t.Fatalf("lockfree=%v: replica %d diverged: %s vs %s",
							lockfree, p+1, got, want)
					}
				}
				return want
			}
			lf := run(true)
			mutex := run(false)
			if spec.IsCommutative(adt) && lf != mutex {
				t.Fatalf("commutative kind diverged across engines: lock-free %s, mutex %s", lf, mutex)
			}
		})
	}
}

// TestLockFreeReclamationBounded pins the epoch reclamation contract:
// the announce list does not leak. After a quiesced run of many times
// lfSegCells announcements, every announced update has drained, every
// filled segment has been retired, and the live list is back to the
// single tail segment new announcements land in.
func TestLockFreeReclamationBounded(t *testing.T) {
	const n, writers, perWriter = 3, 4, 5000
	net := transport.NewLive(n)
	defer net.Close()
	reps := Cluster(n, spec.Counter(), net, ClusterOptions{LockFree: true})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				reps[0].Update(spec.Add{N: 1})
			}
		}()
	}
	wg.Wait()
	reps[0].FlushIntake()
	net.Drain()
	st := reps[0].IntakeStats()
	if st.Appended != uint64(writers*perWriter) {
		t.Fatalf("appended %d, want %d", st.Appended, writers*perWriter)
	}
	if st.Drained != st.Appended {
		t.Fatalf("drained %d of %d appended after flush", st.Drained, st.Appended)
	}
	if st.Segments < uint64(writers*perWriter/lfSegCells) {
		t.Fatalf("segments %d, want at least %d", st.Segments, writers*perWriter/lfSegCells)
	}
	if st.LiveSegments != 1 {
		t.Fatalf("live segments %d after quiesce, want 1", st.LiveSegments)
	}
	if st.Retired != st.Segments-1 {
		t.Fatalf("retired %d of %d segments (only the live tail may remain)", st.Retired, st.Segments)
	}
	if got := int64(reps[0].Query(spec.Read{}).(spec.CtrVal)); got != int64(writers*perWriter) {
		t.Fatalf("counter %d, want %d", got, writers*perWriter)
	}
}

// TestLockFreeReadYourWrites pins the flush-on-read contract: a plain
// (asynchronous) Update must be visible to the very next read on the
// same replica, even though nothing else triggers a drain below the
// deferred-drain threshold.
func TestLockFreeReadYourWrites(t *testing.T) {
	net := transport.NewLive(2)
	defer net.Close()
	reps := Cluster(2, spec.Counter(), net, ClusterOptions{LockFree: true})
	for i := 1; i <= 5; i++ {
		reps[0].Update(spec.Add{N: 1})
		if got := int64(reps[0].Query(spec.Read{}).(spec.CtrVal)); got != int64(i) {
			t.Fatalf("after %d updates read %d", i, got)
		}
	}
	st := reps[0].IntakeStats()
	if st.Appended != 5 || st.Drained != 5 {
		t.Fatalf("intake %+v, want 5 appended and drained via read flushes", st)
	}
}

// TestLockFreeUpdateTimestamped pins the synchronous path sessions
// depend on: UpdateTimestamped returns strictly increasing stamps
// carrying the caller's process id, and the fold is complete when it
// returns (no flush needed before reading).
func TestLockFreeUpdateTimestamped(t *testing.T) {
	net := transport.NewLive(2)
	defer net.Close()
	reps := Cluster(2, spec.Counter(), net, ClusterOptions{LockFree: true})
	var last uint64
	for i := 1; i <= 8; i++ {
		ts := reps[1].UpdateTimestamped(spec.Add{N: 2})
		if ts.Proc != 1 {
			t.Fatalf("stamp proc %d, want 1", ts.Proc)
		}
		if ts.Clock <= last {
			t.Fatalf("stamp clock %d not above previous %d", ts.Clock, last)
		}
		last = ts.Clock
		if got := int64(reps[1].Query(spec.Read{}).(spec.CtrVal)); got != int64(2*i) {
			t.Fatalf("after %d synchronous updates read %d", i, got)
		}
	}
	sreps := ShardedCluster(2, 1, spec.Counter(), transport.NewSim(transport.SimOptions{N: 2, Seed: 4}), ClusterOptions{LockFree: true})
	sess := NewShardedSession(sreps[1])
	sess.Update(spec.Add{N: 1})
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatal("session read-your-writes failed on the lock-free engine")
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
