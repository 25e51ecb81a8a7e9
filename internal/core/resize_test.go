package core

import (
	"fmt"
	"math/rand"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// resizeKeys is the key support of the resharding tests. Per-key
// single-writer discipline (key i is only ever updated by process
// i % n) is what makes the converged state comparable across clusters
// with different clock assignments: each key's updates are totally
// ordered by their writer's program order in every cluster, resized or
// not, so the per-key final state — and hence the merged state — is
// identical. (Cross-writer conflicts on one key converge too, but the
// winning order depends on Lamport stamps, which a resize re-bases;
// countermap updates commute, so that spec is driven multi-writer.)
var resizeKeys = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliett", "kilo", "lima",
	"mike", "november", "oscar", "papa",
}

// resizeUpdate returns the w-th update of process p's workload for the
// given spec, respecting single-writer-per-key for the
// order-sensitive specs.
func resizeUpdate(adt spec.UQADT, n, p, w int, rng *rand.Rand) spec.Update {
	switch adt.(type) {
	case spec.SetSpec:
		k := ownKey(n, p, rng)
		if rng.Intn(3) == 0 {
			return spec.Del{V: k}
		}
		return spec.Ins{V: k}
	case spec.MemorySpec:
		return spec.WriteKey{K: ownKey(n, p, rng), V: fmt.Sprint(w)}
	case spec.CounterMapSpec:
		// Commutative: any process may touch any key.
		return spec.AddKey{K: resizeKeys[rng.Intn(len(resizeKeys))], N: int64(rng.Intn(7) - 3)}
	default:
		panic("no resize update generator for " + adt.Name())
	}
}

// ownKey picks one of process p's own keys (single-writer discipline).
func ownKey(n, p int, rng *rand.Rand) string {
	mine := len(resizeKeys) / n
	return resizeKeys[p*mine+rng.Intn(mine)]
}

// mergedKey is the canonical key of a replica's merged whole state.
func mergedKey(r *ShardedReplica) string {
	return r.ADT().KeyState(r.MergedState())
}

// driveResize runs a workload of perProc updates per process on a
// cluster built at fromShards, resizing each replica to toShards at a
// per-replica trigger point with adversarial deliveries interleaved
// throughout (replicas flip at different moments, so cross-epoch
// messages are genuinely in flight), then quiesces. It returns the
// replicas.
func driveResize(t *testing.T, adt spec.UQADT, seed int64, n, fromShards, toShards, perProc int, opt ClusterOptions, fifo bool) []*ShardedReplica {
	t.Helper()
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed, FIFO: fifo})
	reps := ShardedCluster(n, fromShards, adt, net, opt)
	rng := rand.New(rand.NewSource(seed * 131))
	total := n * perProc
	resizeAt := make([]int, n) // the step at which replica p resizes
	for p := range resizeAt {
		resizeAt[p] = total/3 + rng.Intn(total/3)
	}
	counts := make([]int, n)
	for step := 0; step < total; step++ {
		p := step % n
		for q, at := range resizeAt {
			if at == step {
				reps[q].Resize(toShards)
			}
		}
		reps[p].Update(resizeUpdate(adt, n, p, counts[p], rng))
		counts[p]++
		net.StepN(rng.Intn(4))
	}
	net.Quiesce()
	return reps
}

// replayUpdates replays the exact update sequence of driveResize on a
// fresh cluster (same rng stream, same per-process order) built at the
// given shard count, with no resize, and quiesces it.
func replayUpdates(adt spec.UQADT, seed int64, n, shards, perProc int, opt ClusterOptions, fifo bool) []*ShardedReplica {
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed + 9000, FIFO: fifo})
	reps := ShardedCluster(n, shards, adt, net, opt)
	rng := rand.New(rand.NewSource(seed * 131))
	total := n * perProc
	resizeAt := make([]int, n)
	for p := range resizeAt {
		resizeAt[p] = total/3 + rng.Intn(total/3) // consume the same rng draws
	}
	_ = resizeAt
	counts := make([]int, n)
	for step := 0; step < total; step++ {
		p := step % n
		reps[p].Update(resizeUpdate(adt, n, p, counts[p], rng))
		counts[p]++
		rng.Intn(4) // keep the rng stream aligned with driveResize
	}
	net.Quiesce()
	return reps
}

// TestResizeMatchesFreshCluster is the acceptance gate: for each
// partitionable built-in, a 2-shard cluster resized to 8 mid-run (each
// replica at its own moment, messages in flight across the flip)
// converges, after settle, to a merged state identical on every
// replica to a fresh 8-shard cluster fed the same updates.
func TestResizeMatchesFreshCluster(t *testing.T) {
	for _, adt := range []spec.UQADT{spec.Set(), spec.Memory("0"), spec.CounterMap()} {
		t.Run(adt.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				reps := driveResize(t, adt, seed, 3, 2, 8, 40, ClusterOptions{}, false)
				fresh := replayUpdates(adt, seed, 3, 8, 40, ClusterOptions{}, false)
				want := mergedKey(fresh[0])
				for p, r := range reps {
					if r.NumShards() != 8 {
						t.Fatalf("seed %d: replica %d at %d shards, want 8", seed, p, r.NumShards())
					}
					if got := mergedKey(r); got != want {
						t.Fatalf("seed %d: replica %d merged state diverges from fresh 8-shard cluster:\n got %s\nwant %s", seed, p, got, want)
					}
				}
				// And the resized replicas agree shard by shard.
				wantKey := reps[0].StateKey()
				for p, r := range reps[1:] {
					if got := r.StateKey(); got != wantKey {
						t.Fatalf("seed %d: replicas 0 and %d did not converge", seed, p+1)
					}
				}
			}
		})
	}
}

// TestResizeMatchesUnresizedReference: the property test of the
// resharding protocol — under adversarial delivery, a cluster that
// resizes mid-run converges to the same merged state, bit for bit, as
// a reference cluster that never resized, across engines and shard
// targets (grow and shrink).
func TestResizeMatchesUnresizedReference(t *testing.T) {
	engines := map[string]func() Engine{
		"replay": func() Engine { return NewReplayEngine() },
		"undo":   nil, // the default
	}
	for name, mk := range engines {
		for _, to := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/4to%d", name, to), func(t *testing.T) {
				opt := ClusterOptions{NewEngine: mk}
				for seed := int64(1); seed <= 6; seed++ {
					reps := driveResize(t, spec.Memory("0"), seed, 3, 4, to, 30, opt, false)
					ref := replayUpdates(spec.Memory("0"), seed, 3, 4, 30, opt, false)
					want := mergedKey(ref[0])
					for p, r := range reps {
						if got := mergedKey(r); got != want {
							t.Fatalf("seed %d: replica %d diverges from unresized reference:\n got %s\nwant %s", seed, p, got, want)
						}
					}
				}
			})
		}
	}
}

// TestResizeGrowShrinkCycles: repeated live resizes — 2→8→3 with the
// workload and the adversary running throughout — keep every replica
// convergent with an unresized reference.
func TestResizeGrowShrinkCycles(t *testing.T) {
	adt := spec.CounterMap()
	for seed := int64(1); seed <= 5; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
		reps := ShardedCluster(3, 2, adt, net, ClusterOptions{})
		refNet := transport.NewSim(transport.SimOptions{N: 3, Seed: seed + 77})
		ref := ShardedCluster(3, 2, adt, refNet, ClusterOptions{})
		rng := rand.New(rand.NewSource(seed * 613))
		steps := []int{8, 3} // resize targets of the two cycles
		total := 90
		for step := 0; step < total; step++ {
			if step == total/3 || step == 2*total/3 {
				target := steps[0]
				steps = steps[1:]
				// Stagger: replicas resize a few deliveries apart.
				for _, r := range reps {
					r.Resize(target)
					net.StepN(rng.Intn(3))
				}
			}
			p := step % 3
			u := resizeUpdate(adt, 3, p, step, rng)
			reps[p].Update(u)
			ref[p].Update(u)
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		refNet.Quiesce()
		if got := reps[0].NumShards(); got != 3 {
			t.Fatalf("seed %d: final shard count %d, want 3", seed, got)
		}
		want := mergedKey(ref[0])
		for p, r := range reps {
			if got := mergedKey(r); got != want {
				t.Fatalf("seed %d: replica %d diverges after grow/shrink cycles:\n got %s\nwant %s", seed, p, got, want)
			}
		}
		if res, moved := reps[0].ResizeStats(); res != 2 || moved == 0 {
			t.Fatalf("seed %d: resize stats resizes=%d moved=%d, want 2 resizes and moved > 0", seed, res, moved)
		}
	}
}

// TestResizeCrashDuringResize: a replica crashes in the middle of the
// cluster's staggered resize — after some replicas flipped, before
// others did. The survivors finish the resize and still converge with
// the unresized reference (the crashed replica's in-flight messages
// were sent under the old epoch and must land correctly post-flip).
func TestResizeCrashDuringResize(t *testing.T) {
	adt := spec.Memory("0")
	for seed := int64(1); seed <= 5; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 4, Seed: seed})
		reps := ShardedCluster(4, 2, adt, net, ClusterOptions{})
		refNet := transport.NewSim(transport.SimOptions{N: 4, Seed: seed + 55})
		ref := ShardedCluster(4, 2, adt, refNet, ClusterOptions{})
		rng := rand.New(rand.NewSource(seed * 271))
		crashed := 3
		total := 80
		for step := 0; step < total; step++ {
			switch step {
			case total / 2:
				reps[0].Resize(8)
				reps[1].Resize(8)
			case total/2 + 4:
				net.Crash(crashed)
			case total/2 + 8:
				reps[2].Resize(8)
				reps[3].Resize(8) // crashed: local op, receives nothing anyway
			}
			p := step % 4
			if p == crashed && step > total/2+4 {
				continue // a crashed process issues nothing
			}
			u := resizeUpdate(adt, 4, p, step, rng)
			reps[p].Update(u)
			ref[p].Update(u)
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		refNet.Quiesce()
		want := mergedKey(ref[0])
		for p := 0; p < 4; p++ {
			if p == crashed {
				continue
			}
			if got := mergedKey(reps[p]); got != want {
				t.Fatalf("seed %d: survivor %d diverges after crash-during-resize:\n got %s\nwant %s", seed, p, got, want)
			}
		}
	}
}

// TestResizeWithGC: resizing replicas whose shards compact their logs
// must stay sound — the split bases seed the new shards, late
// cross-epoch arrivals land above the seeded horizon (Log.Insert
// panics if stability were violated), and compaction keeps working in
// the new epoch.
func TestResizeWithGC(t *testing.T) {
	adt := spec.CounterMap()
	for seed := int64(1); seed <= 5; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed, FIFO: true})
		reps := ShardedCluster(3, 2, adt, net, ClusterOptions{GC: true, GCEvery: 4})
		rng := rand.New(rand.NewSource(seed * 389))
		for step := 0; step < 120; step++ {
			if step == 60 {
				for _, r := range reps {
					r.ForceCompact()
					r.Resize(8)
					net.StepN(rng.Intn(3))
				}
			}
			reps[step%3].Update(resizeUpdate(adt, 3, step%3, step, rng))
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		want := reps[0].StateKey()
		for p, r := range reps[1:] {
			if got := r.StateKey(); got != want {
				t.Fatalf("seed %d: GC replicas 0 and %d diverged after resize", seed, p+1)
			}
		}
		// New-epoch compaction must still make progress once the fresh
		// stability trackers have re-learned from new-epoch traffic.
		for step := 0; step < 60; step++ {
			reps[step%3].Update(resizeUpdate(adt, 3, step%3, step, rng))
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		for _, r := range reps {
			r.ForceCompact()
		}
		if c := reps[0].Stats().Compacted; c == 0 {
			t.Fatalf("seed %d: no compaction at all under GC", seed)
		}
	}
}

// TestResizeHeterogeneousCounts: the epoch tag is the sender's shard
// count, so even replicas resized to *different* counts keep routing
// every update to the key's owner — their per-shard layouts differ,
// but the merged states still converge with an unresized reference.
func TestResizeHeterogeneousCounts(t *testing.T) {
	adt := spec.Memory("0")
	for seed := int64(1); seed <= 4; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
		reps := ShardedCluster(3, 2, adt, net, ClusterOptions{})
		refNet := transport.NewSim(transport.SimOptions{N: 3, Seed: seed + 33})
		ref := ShardedCluster(3, 2, adt, refNet, ClusterOptions{})
		rng := rand.New(rand.NewSource(seed * 911))
		targets := []int{4, 8, 3} // each replica lands on its own table
		for step := 0; step < 60; step++ {
			if step == 20 {
				for p, r := range reps {
					r.Resize(targets[p])
					net.StepN(rng.Intn(3))
				}
			}
			p := step % 3
			u := resizeUpdate(adt, 3, p, step, rng)
			reps[p].Update(u)
			ref[p].Update(u)
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		refNet.Quiesce()
		want := mergedKey(ref[0])
		for p, r := range reps {
			if got := mergedKey(r); got != want {
				t.Fatalf("seed %d: replica %d (at %d shards) diverges from reference:\n got %s\nwant %s",
					seed, p, r.NumShards(), got, want)
			}
		}
	}
}

// TestResizeSnapshotRoundTrip: a resized shard's log other than shard
// 0's carries a seeded base with no folded-update count of its own
// (baseLen 0 with base != nil; shard 0 carries the whole count) —
// Snapshot/Restore must round-trip that shape, which is why the wire
// format flags base presence explicitly.
func TestResizeSnapshotRoundTrip(t *testing.T) {
	adt := spec.CounterMap()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 4, FIFO: true})
	reps := ShardedCluster(2, 2, adt, net, ClusterOptions{GC: true, GCEvery: 4})
	for k := 0; k < 24; k++ {
		reps[k%2].Update(spec.AddKey{K: resizeKeys[k%len(resizeKeys)], N: 1})
		net.StepN(2)
	}
	net.Quiesce()
	compacted := reps[0].Stats().Compacted
	for _, r := range reps {
		r.ForceCompact()
		r.Resize(4)
	}
	net.Quiesce()
	if c := reps[0].Stats().Compacted; c <= compacted {
		t.Fatalf("Compacted %d -> %d across ForceCompact and Resize", compacted, c)
	}
	restored := func(donor *Replica) *Replica {
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewReplica(Config{ID: 1, N: 2, ADT: adt, Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 9})})
		if err := fresh.Restore(snap); err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	seeded := false
	var sum Fingerprint
	for s := 0; s < reps[0].NumShards(); s++ {
		donor := reps[0].Shard(s)
		if base, _ := donor.log.Base(); base != nil && donor.log.baseLen == 0 {
			seeded = true
		}
		fresh := restored(donor)
		if got, want := fresh.StateKey(), donor.StateKey(); got != want {
			t.Fatalf("shard %d: restored state diverges from donor:\n got %s\nwant %s", s, got, want)
		}
		fp := fresh.log.Fingerprint()
		sum.Count += fp.Count
		sum.Sum += fp.Sum
	}
	if !seeded {
		t.Fatalf("no shard carried a seeded base; the round-trip test lost its point")
	}
	// The shards' snapshots, restored one by one, carry the process's
	// whole update set between them.
	if want := reps[0].Fingerprint(); sum != want {
		t.Fatalf("restored shards sum to fingerprint %s, the process holds %s", sum, want)
	}
	// A resize back to one shard keeps what the process folded counted.
	compacted = reps[0].Stats().Compacted
	reps[0].Resize(1)
	if c := reps[0].Stats().Compacted; c < compacted {
		t.Fatalf("Compacted went back across Resize(1): %d -> %d", compacted, c)
	}
}

// TestResizeInvalidatesSessions: a session opened before a resize to a
// different shard count must fail loudly (its lanes no longer
// correspond to key ranges), and a fresh session works.
func TestResizeInvalidatesSessions(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := ShardedCluster(2, 2, spec.CounterMap(), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	sess.Update(spec.AddKey{K: "alpha", N: 1})
	for _, r := range reps {
		r.Resize(4)
	}
	net.Quiesce()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("stale session survived a resize; want panic")
			}
		}()
		sess.Update(spec.AddKey{K: "alpha", N: 1})
	}()
	fresh := NewShardedSession(reps[0])
	fresh.Update(spec.AddKey{K: "alpha", N: 1})
	net.Quiesce()
	if out, ok := fresh.TryQuery(spec.ReadCtr{K: "alpha"}); !ok || out.(spec.CtrVal) != 2 {
		t.Fatalf("fresh session read: got %v ok=%v, want 2 true", out, ok)
	}
}

// TestResizeShardOfFallback: ShardOf must report shard 0 for
// non-partitionable types — where every update actually lives — rather
// than hashing into a shard that holds no data.
func TestResizeShardOfFallback(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 1})
	rep := NewShardedReplica(ShardedConfig{ID: 0, N: 1, Shards: 1, ADT: spec.Counter(), Net: net})
	for _, key := range resizeKeys {
		if got := rep.ShardOf(key); got != 0 {
			t.Fatalf("non-partitionable ShardOf(%q) = %d, want 0", key, got)
		}
	}
	snet := transport.NewSim(transport.SimOptions{N: 1, Seed: 1})
	sharded := NewShardedReplica(ShardedConfig{ID: 0, N: 1, Shards: 4, ADT: spec.CounterMap(), Net: snet})
	seen := map[int]bool{}
	for _, key := range resizeKeys {
		s := sharded.ShardOf(key)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%q) = %d out of range", key, s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("partitionable ShardOf never spread keys: %v", seen)
	}
}
