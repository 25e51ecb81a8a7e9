package core

import (
	"fmt"
	"math/rand"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// freshFold folds every shard's state into a new merged state without
// going through the cache — the independent reference the cache must
// match.
func freshFold(r *ShardedReplica) spec.State {
	adt := r.ADT()
	part := adt.(spec.Partitionable)
	merged := adt.Initial()
	for s := 0; s < r.NumShards(); s++ {
		r.Shard(s).ReadStateAt(func(st spec.State, _ uint64) {
			merged = part.MergeInto(merged, adt.Clone(st))
		})
	}
	return merged
}

// TestShardedMergedCacheRefoldsOnlyChangedShards: a settled replica
// serves whole-state reads without folding anything; touching one key
// re-folds exactly the owning shard.
func TestShardedMergedCacheRefoldsOnlyChangedShards(t *testing.T) {
	adt := spec.CounterMap()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 11})
	reps := ShardedCluster(2, 4, adt, net, ClusterOptions{})
	for i, k := range shardKeys {
		reps[0].Update(spec.AddKey{K: k, N: int64(i + 1)})
	}
	net.Quiesce()
	rep := reps[0]

	first := rep.Query(spec.ReadAllCtrs{})
	folds0, _ := rep.MergedCacheStats()
	if folds0 == 0 {
		t.Fatal("first whole-state read folded nothing")
	}
	for i := 0; i < 10; i++ {
		if got := rep.Query(spec.ReadAllCtrs{}); !adt.EqualOutput(got, first) {
			t.Fatalf("settled read changed: %v vs %v", got, first)
		}
	}
	folds, reads := rep.MergedCacheStats()
	if folds != folds0 {
		t.Fatalf("settled reads re-folded shards: %d folds after baseline %d", folds, folds0)
	}
	if reads < 11 {
		t.Fatalf("cache served %d reads, expected ≥11", reads)
	}

	// One keyed update dirties exactly one shard.
	rep.Update(spec.AddKey{K: shardKeys[0], N: 5})
	got := rep.Query(spec.ReadAllCtrs{})
	folds2, _ := rep.MergedCacheStats()
	if folds2 != folds0+1 {
		t.Fatalf("one dirty shard re-folded %d shards", folds2-folds0)
	}
	want := adt.Query(freshFold(rep), spec.ReadAllCtrs{})
	if !adt.EqualOutput(got, want) {
		t.Fatalf("post-update read %v, fresh fold says %v", got, want)
	}
}

// TestShardedMergedCacheMatchesFreshFold: randomized churn across
// shards and replicas with interleaved whole-state reads; every read
// must match an independent fold of the current shard states.
func TestShardedMergedCacheMatchesFreshFold(t *testing.T) {
	adt := spec.CounterMap()
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 12})
	reps := ShardedCluster(3, 4, adt, net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
	})
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 200; round++ {
		p := rng.Intn(3)
		reps[p].Update(spec.AddKey{K: shardKeys[rng.Intn(len(shardKeys))], N: int64(rng.Intn(7) - 3)})
		net.StepN(rng.Intn(4))
		probe := reps[rng.Intn(3)]
		got := probe.Query(spec.ReadAllCtrs{})
		want := adt.Query(freshFold(probe), spec.ReadAllCtrs{})
		if !adt.EqualOutput(got, want) {
			t.Fatalf("round %d: cached merged read %v, fresh fold %v", round, got, want)
		}
	}
	net.Quiesce()
	for _, rep := range reps {
		got := rep.Query(spec.ReadAllCtrs{})
		want := adt.Query(freshFold(rep), spec.ReadAllCtrs{})
		if !adt.EqualOutput(got, want) {
			t.Fatalf("converged read %v, fresh fold %v", got, want)
		}
	}
}

// TestShardedMergedCacheWithGC: compaction bumps shard log versions;
// the cache must refold and stay correct across GC.
func TestShardedMergedCacheWithGC(t *testing.T) {
	adt := spec.CounterMap()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 14, FIFO: true})
	reps := ShardedCluster(2, 2, adt, net, ClusterOptions{GC: true, GCEvery: 8})
	for k := 0; k < 80; k++ {
		reps[k%2].Update(spec.AddKey{K: shardKeys[k%len(shardKeys)], N: 1})
		net.StepN(3)
		if k%10 == 9 {
			got := reps[0].Query(spec.ReadAllCtrs{})
			want := adt.Query(freshFold(reps[0]), spec.ReadAllCtrs{})
			if !adt.EqualOutput(got, want) {
				t.Fatalf("step %d: cached merged read %v, fresh fold %v", k, got, want)
			}
		}
	}
	net.Quiesce()
	reps[0].ForceCompact()
	got := reps[0].Query(spec.ReadAllCtrs{})
	want := adt.Query(freshFold(reps[0]), spec.ReadAllCtrs{})
	if !adt.EqualOutput(got, want) {
		t.Fatalf("post-GC merged read %v, fresh fold %v", got, want)
	}
	total := int64(0)
	for _, v := range got.(spec.Elems) {
		var k string
		var n int64
		if _, err := fmt.Sscanf(v, "%1s=%d", &k, &n); err == nil {
			total += n
		}
	}
	if total != 80 {
		t.Fatalf("post-GC counters sum to %d, want 80", total)
	}
}
