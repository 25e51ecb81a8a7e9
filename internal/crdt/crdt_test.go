package crdt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/transport"
)

// setCluster builds n replicas of one baseline over a fresh sim
// network.
func setCluster(n int, seed int64, mk func(int, transport.Network) ReplicatedSet) ([]ReplicatedSet, *transport.SimNetwork) {
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed})
	sets := make([]ReplicatedSet, n)
	for i := 0; i < n; i++ {
		sets[i] = mk(i, net)
	}
	return sets, net
}

// allBaselines lists the deletion-capable set baselines.
func allBaselines() map[string]func(int, transport.Network) ReplicatedSet {
	return map[string]func(int, transport.Network) ReplicatedSet{
		"2p-set":  func(i int, n transport.Network) ReplicatedSet { return NewTwoPhaseSet(i, n) },
		"pn-set":  func(i int, n transport.Network) ReplicatedSet { return NewPNSet(i, n) },
		"c-set":   func(i int, n transport.Network) ReplicatedSet { return NewCSet(i, n) },
		"or-set":  func(i int, n transport.Network) ReplicatedSet { return NewORSet(i, n) },
		"lww-set": func(i int, n transport.Network) ReplicatedSet { return NewLWWSet(i, n) },
	}
}

// TestQuickCRDTSetsConverge: every baseline except the naive eager set
// converges under adversarial delivery, for any seed — the defining
// CRDT property.
func TestQuickCRDTSetsConverge(t *testing.T) {
	for name, mk := range allBaselines() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				sets, net := setCluster(3, seed, mk)
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 15; k++ {
					p := rng.Intn(3)
					v := fmt.Sprint(rng.Intn(3))
					if rng.Intn(2) == 0 {
						sets[p].Insert(v)
					} else {
						sets[p].Delete(v)
					}
					net.StepN(rng.Intn(4))
				}
				net.Quiesce()
				want := sets[0].StateKey()
				for _, s := range sets[1:] {
					if s.StateKey() != want {
						t.Logf("%s diverged: %s vs %s", name, s.StateKey(), want)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNaiveSetDiverges: the eager non-CRDT set must diverge for some
// delivery schedule — the motivation for everything else.
func TestNaiveSetDiverges(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		sets, net := setCluster(2, seed,
			func(i int, n transport.Network) ReplicatedSet { return NewNaiveSet(i, n) })
		// The canonical conflict: concurrent I(x) and D(x), delivered
		// in opposite orders at the two replicas.
		sets[0].Insert("x")
		sets[1].Delete("x")
		net.Quiesce()
		if sets[0].StateKey() != sets[1].StateKey() {
			return // divergence demonstrated
		}
	}
	t.Fatalf("naive set never diverged — adversary too weak")
}

// TestFig1bConflictMatrix reproduces §VI's point that every set
// resolves the Figure 1(b) workload differently: p0 does I(1)·D(2),
// p1 does I(2)·D(1), all four updates pairwise concurrent across
// processes.
func TestFig1bConflictMatrix(t *testing.T) {
	want := map[string]string{
		"2p-set":  "∅",      // tombstones win
		"pn-set":  "∅",      // counters cancel
		"c-set":   "{1, 2}", // deletes of absent elements broadcast nothing
		"or-set":  "{1, 2}", // inserts win over concurrent unobserved deletes
		"lww-set": "∅",      // deletes carry later local clocks
	}
	for name, mk := range allBaselines() {
		sets, net := setCluster(2, 1, mk)
		// Local ops first, no cross delivery until quiesce: maximal
		// concurrency.
		sets[0].Insert("1")
		sets[0].Delete("2")
		sets[1].Insert("2")
		sets[1].Delete("1")
		net.Quiesce()
		if got := sets[0].StateKey(); got != want[name] {
			t.Errorf("%s converged to %s, want %s", name, got, want[name])
		}
		if sets[0].StateKey() != sets[1].StateKey() {
			t.Errorf("%s diverged", name)
		}
	}
}

func TestORSetInsertWinsPairwise(t *testing.T) {
	// Concurrent I(x) at p0 and D(x) at p1 (which observed an earlier
	// insert): the unobserved insert survives.
	sets, net := setCluster(2, 3,
		func(i int, n transport.Network) ReplicatedSet { return NewORSet(i, n) })
	sets[0].Insert("x")
	net.Quiesce()
	// Both now see x. p1 deletes while p0 concurrently re-inserts.
	sets[0].Insert("x")
	sets[1].Delete("x")
	net.Quiesce()
	for i, s := range sets {
		if s.StateKey() != "{x}" {
			t.Fatalf("or-set %d: %s, want {x} (insert wins)", i, s.StateKey())
		}
	}
}

func TestORSetDeleteRemovesObserved(t *testing.T) {
	sets, net := setCluster(2, 4,
		func(i int, n transport.Network) ReplicatedSet { return NewORSet(i, n) })
	sets[0].Insert("x")
	net.Quiesce()
	sets[1].Delete("x")
	net.Quiesce()
	for i, s := range sets {
		if s.StateKey() != "∅" {
			t.Fatalf("or-set %d: %s, want ∅ (observed delete)", i, s.StateKey())
		}
	}
	or := sets[1].(*ORSet)
	if or.TombstoneCount() == 0 {
		t.Fatalf("observed delete must leave a tombstone")
	}
}

func TestTwoPhaseSetNoReinsert(t *testing.T) {
	sets, net := setCluster(2, 5,
		func(i int, n transport.Network) ReplicatedSet { return NewTwoPhaseSet(i, n) })
	sets[0].Insert("x")
	net.Quiesce()
	sets[0].Delete("x")
	net.Quiesce()
	sets[1].Insert("x") // re-insertion is forever lost in a 2P-Set
	net.Quiesce()
	for i, s := range sets {
		if s.StateKey() != "∅" {
			t.Fatalf("2p-set %d: %s, want ∅", i, s.StateKey())
		}
	}
}

func TestPNSetDoubleInsertNeedsDoubleDelete(t *testing.T) {
	sets, net := setCluster(2, 6,
		func(i int, n transport.Network) ReplicatedSet { return NewPNSet(i, n) })
	sets[0].Insert("x")
	sets[1].Insert("x")
	net.Quiesce()
	sets[0].Delete("x")
	net.Quiesce()
	if got := sets[1].StateKey(); got != "{x}" {
		t.Fatalf("after one delete of a doubly-inserted element: %s, want {x}", got)
	}
	sets[1].Delete("x")
	net.Quiesce()
	if got := sets[0].StateKey(); got != "∅" {
		t.Fatalf("after two deletes: %s, want ∅", got)
	}
}

func TestCSetSequentialBehavesLikeSet(t *testing.T) {
	sets, net := setCluster(2, 7,
		func(i int, n transport.Network) ReplicatedSet { return NewCSet(i, n) })
	sets[0].Insert("x")
	net.Quiesce()
	sets[1].Delete("x")
	net.Quiesce()
	sets[0].Insert("x") // re-insert after observed delete works (unlike 2P)
	net.Quiesce()
	for i, s := range sets {
		if s.StateKey() != "{x}" {
			t.Fatalf("c-set %d: %s, want {x}", i, s.StateKey())
		}
	}
}

func TestLWWSetLastWriterWins(t *testing.T) {
	sets, net := setCluster(2, 8,
		func(i int, n transport.Network) ReplicatedSet { return NewLWWSet(i, n) })
	sets[0].Insert("x") // (1,0)
	net.Quiesce()
	sets[1].Delete("x") // (2,1) - newer
	net.Quiesce()
	if got := sets[0].StateKey(); got != "∅" {
		t.Fatalf("newer delete must win: %s", got)
	}
	sets[0].Insert("x") // (3,0) - newest
	net.Quiesce()
	if got := sets[1].StateKey(); got != "{x}" {
		t.Fatalf("newest insert must win: %s", got)
	}
}

func TestGSetGrowOnly(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 9})
	a, b := NewGSet(0, net), NewGSet(1, net)
	a.Insert("1")
	b.Insert("2")
	net.Quiesce()
	if a.StateKey() != "{1, 2}" || b.StateKey() != "{1, 2}" {
		t.Fatalf("gsets: %s %s", a.StateKey(), b.StateKey())
	}
	if a.SupportsDelete() {
		t.Fatalf("g-set must not claim delete support")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("g-set delete must panic")
		}
	}()
	a.Delete("1")
}
