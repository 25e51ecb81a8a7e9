package updatec

import (
	"fmt"
	"math/rand"
	"testing"

	"updatec/internal/check"
)

// TestConsistencyCausalCommutativeConverges runs a commutative object
// at the causal level: no timestamps, no arbitration, and it still
// converges — with the recorded run classified causally consistent.
func TestConsistencyCausalCommutativeConverges(t *testing.T) {
	cl, hs, err := New(3, CounterObject(), WithConsistency(Causal), WithSeed(3), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Level() != Causal {
		t.Fatalf("Level() = %v, want Causal", cl.Level())
	}
	for i, h := range hs {
		h.Add(int64(i + 1))
	}
	cl.Settle()
	if !cl.Converged() {
		t.Fatal("commutative object must converge under causal delivery")
	}
	if got := hs[0].Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	c, err := cl.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.CausallyConsistent {
		t.Fatalf("causal-mode run must classify CC: %+v", c)
	}
	if !c.EventuallyConsistent {
		t.Fatalf("converged run must classify EC: %+v", c)
	}
}

// TestConsistencyCausalNonCommutativeConverges is the spectrum's other
// half: concurrent appends to a log at the causal level are gated, not
// folded in arrival order — each replica shows its own append first, then
// orders both by timestamp once the other lands — so the replicas
// converge, and the run is strong update consistent.
func TestConsistencyCausalNonCommutativeConverges(t *testing.T) {
	cl, hs, err := New(2, TextLogObject(), WithConsistency(Causal), WithSeed(1), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Concurrent: neither append has seen the other.
	hs[0].Append("a")
	hs[1].Append("b")
	cl.Settle()
	if !cl.Converged() {
		t.Fatal("the causal level must converge concurrent non-commutative updates")
	}
	c, err := cl.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.EventuallyConsistent || !c.StrongUpdateConsistent {
		t.Fatalf("converged, timestamp-ordered run must classify EC and SUC: %+v", c)
	}

	// The same workload at the default level converges: Algorithm 3's
	// timestamps arbitrate the concurrent appends.
	ucl, uhs, err := New(2, TextLogObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ucl.Close()
	uhs[0].Append("a")
	uhs[1].Append("b")
	ucl.Settle()
	if !ucl.Converged() {
		t.Fatal("update consistency must converge the same workload")
	}
}

// TestConsistencyDefaultLevelCCEqualsPC pins the deciders' boundary
// condition: update-consistent runs record no dependency vectors, so
// causal consistency degenerates to pipelined consistency on their
// histories.
func TestConsistencyDefaultLevelCCEqualsPC(t *testing.T) {
	cl, hs, err := New(2, SetObject(), WithSeed(2), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Level() != UpdateConsistent {
		t.Fatalf("Level() = %v, want the UpdateConsistent default", cl.Level())
	}
	for i, h := range hs {
		for j := 0; j < 3; j++ {
			h.Insert(fmt.Sprintf("v%d-%d", i, j))
		}
	}
	cl.Settle()
	if !cl.Converged() {
		t.Fatal("cluster did not converge")
	}
	c, err := cl.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UpdateConsistent {
		t.Fatalf("run must classify UC: %+v", c)
	}
	if c.CausallyConsistent != c.PipelinedConsistent {
		t.Fatalf("without dependency vectors CC must equal PC: %+v", c)
	}
}

// TestCausalShardedRecordedCC records one causal counter-map schedule at
// one shard, at four, and resized 1→4→2 with the backlog in flight —
// keyed reads, whole-state reads (which read every shard at one cut) and
// updates — and hands each history to the CC decider: the sharded runs
// are decided causally consistent wherever the one-shard run is, and the
// counter map's updates commute, so that is everywhere.
func TestCausalShardedRecordedCC(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	for seed := int64(1); seed <= 2; seed++ {
		verdicts := map[string]bool{}
		for _, shape := range []string{"1", "4", "1-4-2"} {
			opts := []Option{WithConsistency(Causal), WithSeed(seed), WithRecording()}
			if shape == "4" {
				opts = append(opts, WithShards(4))
			}
			cl, maps, err := New(3, CounterMapObject(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 36; step++ {
				if to, ok := map[int]int{12: 4, 24: 2}[step]; ok && shape == "1-4-2" {
					if err := cl.Resize(to); err != nil {
						t.Fatal(err)
					}
				}
				m, key := maps[rng.Intn(len(maps))], keys[rng.Intn(len(keys))]
				switch rng.Intn(4) {
				case 0:
					m.Value(key)
				case 1:
					m.All()
				default:
					m.Inc(key)
				}
				for k := rng.Intn(3); k > 0 && cl.Deliver(); k-- {
				}
			}
			h, err := cl.recorded()
			if err != nil {
				t.Fatal(err)
			}
			if !cl.Converged() {
				t.Fatalf("seed %d, shards %s: did not converge", seed, shape)
			}
			withDeps := 0
			for _, e := range h.Queries() {
				if e.Deps != nil {
					withDeps++
				}
			}
			if withDeps < len(h.Queries()) || len(h.Queries()) < 10 {
				t.Fatalf("seed %d, shards %s: %d of %d queries recorded with dependencies", seed, shape, withDeps, len(h.Queries()))
			}
			if cc := check.CC(h); cc.Undecided {
				t.Fatalf("seed %d, shards %s: CC undecided: %s", seed, shape, cc.Reason)
			} else {
				verdicts[shape] = cc.Holds
			}
			cl.Close()
		}
		if !verdicts["1"] || verdicts["4"] != verdicts["1"] || verdicts["1-4-2"] != verdicts["1"] {
			t.Fatalf("seed %d: CC verdicts by shard shape %v, want all true", seed, verdicts)
		}
	}
}
