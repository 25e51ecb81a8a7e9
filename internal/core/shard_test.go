package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// shardKeys is a support of keys that (per fnv1a) spreads over every
// shard count used in the tests.
var shardKeys = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// TestShardedConvergence: for each partitionable spec and several shard
// counts, a 3-process sharded cluster under adversarial delivery
// converges to identical merged states.
func TestShardedConvergence(t *testing.T) {
	specs := []spec.UQADT{spec.Set(), spec.Memory("0"), spec.CounterMap()}
	for _, adt := range specs {
		for _, shards := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/%d", adt.Name(), shards), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
					reps := ShardedCluster(3, shards, adt, net, ClusterOptions{})
					rng := rand.New(rand.NewSource(seed * 77))
					for k := 0; k < 60; k++ {
						reps[rng.Intn(3)].Update(randomShardedUpdate(adt, rng))
						net.StepN(rng.Intn(5))
					}
					net.Quiesce()
					want := reps[0].StateKey()
					for _, r := range reps[1:] {
						if got := r.StateKey(); got != want {
							t.Fatalf("seed %d: diverged:\n%s\nvs\n%s", seed, got, want)
						}
					}
				}
			})
		}
	}
}

func randomShardedUpdate(adt spec.UQADT, rng *rand.Rand) spec.Update {
	k := shardKeys[rng.Intn(len(shardKeys))]
	switch adt.(type) {
	case spec.SetSpec:
		if rng.Intn(2) == 0 {
			return spec.Ins{V: k}
		}
		return spec.Del{V: k}
	case spec.MemorySpec:
		return spec.WriteKey{K: k, V: fmt.Sprint(rng.Intn(9))}
	case spec.CounterMapSpec:
		return spec.AddKey{K: k, N: int64(rng.Intn(7) - 3)}
	default:
		panic("no sharded update generator for " + adt.Name())
	}
}

// TestShardedMatchesUnshardedForCommutativeSpec: counter-map updates
// commute, so the converged state is a pure function of the update
// multiset — the sharded cluster must converge to exactly the state an
// unsharded cluster reaches on the same updates.
func TestShardedMatchesUnshardedForCommutativeSpec(t *testing.T) {
	adt := spec.CounterMap()
	script := func(update func(p int, u spec.Update)) {
		rng := rand.New(rand.NewSource(42))
		for k := 0; k < 100; k++ {
			update(rng.Intn(3), spec.AddKey{K: shardKeys[rng.Intn(len(shardKeys))], N: int64(rng.Intn(5) - 2)})
		}
	}
	netA := transport.NewSim(transport.SimOptions{N: 3, Seed: 1})
	plain := Cluster(3, adt, netA, ClusterOptions{})
	script(func(p int, u spec.Update) { plain[p].Update(u) })
	netA.Quiesce()

	netB := transport.NewSim(transport.SimOptions{N: 3, Seed: 99})
	sharded := ShardedCluster(3, 4, adt, netB, ClusterOptions{})
	script(func(p int, u spec.Update) { sharded[p].Update(u) })
	netB.Quiesce()

	want := adt.KeyState(replState(t, plain[0]))
	got := adt.KeyState(sharded[0].MergedState())
	if got != want {
		t.Fatalf("sharded converged state %s, unsharded %s", got, want)
	}
}

func replState(t *testing.T, r *Replica) spec.State {
	t.Helper()
	var out spec.State
	r.ReadStateAt(func(s spec.State, _ uint64) { out = r.ADT().Clone(s) })
	return out
}

// TestShardedKeyedQueryRouting: keyed reads are answered by the owning
// shard alone and see exactly that key's writes.
func TestShardedKeyedQueryRouting(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := ShardedCluster(2, 4, spec.Memory("0"), net, ClusterOptions{})
	for i, k := range shardKeys {
		reps[i%2].Update(spec.WriteKey{K: k, V: fmt.Sprint(i)})
	}
	net.Quiesce()
	for i, k := range shardKeys {
		for _, r := range reps {
			if got := r.Query(spec.ReadKey{K: k}); got != spec.RegVal(fmt.Sprint(i)) {
				t.Fatalf("R(%s) = %v, want %d", k, got, i)
			}
		}
	}
	if got := reps[0].Query(spec.ReadKey{K: "never-written"}); got != spec.RegVal("0") {
		t.Fatalf("unwritten register reads %v, want initial value", got)
	}
}

// TestShardedCrossShardQueryDeterminism: whole-state queries evaluated
// on the merged state agree across replicas and across repeated runs of
// the same seed (shard merge order must not leak into results).
func TestShardedCrossShardQueryDeterminism(t *testing.T) {
	run := func(seed int64) (spec.QueryOutput, spec.QueryOutput) {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
		reps := ShardedCluster(3, 4, spec.CounterMap(), net, ClusterOptions{})
		rng := rand.New(rand.NewSource(5))
		for k := 0; k < 80; k++ {
			reps[rng.Intn(3)].Update(spec.AddKey{K: shardKeys[rng.Intn(len(shardKeys))], N: 1})
		}
		net.Quiesce()
		return reps[0].Query(spec.ReadAllCtrs{}), reps[2].Query(spec.ReadAllCtrs{})
	}
	adt := spec.CounterMap()
	a0, a2 := run(11)
	if !adt.EqualOutput(a0, a2) {
		t.Fatalf("replicas disagree on merged query: %v vs %v", a0, a2)
	}
	b0, _ := run(11)
	if !adt.EqualOutput(a0, b0) {
		t.Fatalf("same seed produced different merged query: %v vs %v", a0, b0)
	}
	// Counter increments commute, so even a different delivery order
	// must produce the same converged merged output.
	c0, _ := run(1234)
	if !adt.EqualOutput(a0, c0) {
		t.Fatalf("commutative workload diverged across seeds: %v vs %v", a0, c0)
	}
}

// TestShardedNonPartitionableFallback: a spec without Partitionable
// routes every update and query to shard 0; the other shards stay
// empty and the object behaves like a plain Replica.
func TestShardedNonPartitionableFallback(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 8})
	reps := ShardedCluster(2, 4, spec.Counter(), net, ClusterOptions{})
	for k := 0; k < 10; k++ {
		reps[k%2].Update(spec.Add{N: 1})
	}
	net.Quiesce()
	for _, r := range reps {
		if got := r.Query(spec.Read{}); got != spec.CtrVal(10) {
			t.Fatalf("counter reads %v, want 10", got)
		}
		if ops := r.Shard(0).Stats().TotalOps; ops != 10 {
			t.Fatalf("shard 0 holds %d ops, want all 10", ops)
		}
		for s := 1; s < r.NumShards(); s++ {
			if ops := r.Shard(s).Stats().TotalOps; ops != 0 {
				t.Fatalf("shard %d holds %d ops, want 0", s, ops)
			}
		}
	}
}

// TestShardedRouterStability: every replica maps a key to the same
// shard — the disjointness of per-shard states depends on it.
func TestShardedRouterStability(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 0})
	reps := ShardedCluster(3, 8, spec.CounterMap(), net, ClusterOptions{})
	for _, k := range shardKeys {
		want := reps[0].ShardOf(k)
		for _, r := range reps[1:] {
			if got := r.ShardOf(k); got != want {
				t.Fatalf("key %q routes to shard %d on one replica, %d on another", k, want, got)
			}
		}
	}
}

// TestShardedGC: per-shard stability compaction on a FIFO transport
// compacts without breaking convergence.
func TestShardedGC(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 21, FIFO: true})
	reps := ShardedCluster(3, 4, spec.CounterMap(), net, ClusterOptions{GC: true, GCEvery: 8})
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 300; k++ {
		reps[k%3].Update(spec.AddKey{K: shardKeys[rng.Intn(len(shardKeys))], N: 1})
		net.StepN(4)
	}
	net.Quiesce()
	reps[0].ForceCompact()
	if reps[0].Stats().Compacted == 0 {
		t.Fatal("expected some compaction under FIFO GC")
	}
	want := reps[0].StateKey()
	for _, r := range reps[1:] {
		if got := r.StateKey(); got != want {
			t.Fatalf("GC broke convergence:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestShardedLiveHammer mixes concurrent updates across shards and
// whole-state queries on a live transport; run with -race. After the
// network drains, all replicas must agree and the merged state must
// account for every update.
func TestShardedLiveHammer(t *testing.T) {
	const n, shards, workers, perWorker = 3, 4, 6, 200
	net := transport.NewLive(n)
	defer net.Close()
	reps := ShardedCluster(n, shards, spec.CounterMap(), net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := reps[w%n]
			for k := 0; k < perWorker; k++ {
				rep.Update(spec.AddKey{K: shardKeys[(w+k)%len(shardKeys)], N: 1})
				if k%50 == 0 {
					_ = rep.Query(spec.ReadAllCtrs{})
					_ = rep.Query(spec.ReadCtr{K: shardKeys[k%len(shardKeys)]})
				}
			}
		}(w)
	}
	wg.Wait()
	net.Drain()
	want := reps[0].StateKey()
	for _, r := range reps[1:] {
		if got := r.StateKey(); got != want {
			t.Fatalf("live sharded cluster diverged:\n%s\nvs\n%s", got, want)
		}
	}
	// Every increment must be accounted for in the merged state.
	total := int64(0)
	state := reps[0].MergedState().(map[string]int64)
	for _, v := range state {
		total += v
	}
	if total != workers*perWorker {
		t.Fatalf("merged state sums to %d, want %d", total, workers*perWorker)
	}
}

// TestShardsShareProcessClock: a sharded replica's shards stamp with the
// process's one clock, so every stamp names one update of the replica
// and a process's stamps increase in issue order across shards — at 4
// shards, after a Resize, and after cross-epoch deliveries landed by
// Absorb, which the next local stamp must exceed.
func TestShardsShareProcessClock(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3, FIFO: true})
	reps := ShardedCluster(2, 4, spec.CounterMap(), net, ClusterOptions{})
	var issued [2][]int64 // per process, the serials it issued, in order
	serial := int64(0)
	issue := func(p, n int) {
		for i := 0; i < n; i++ {
			serial++
			reps[p].Update(spec.AddKey{K: fmt.Sprintf("k%d", serial%11), N: serial})
			issued[p] = append(issued[p], serial)
		}
	}
	// stamps maps every update replica r holds, by serial, to its stamp,
	// failing on a stamp two entries share.
	stamps := func(stage string, r *ShardedReplica) map[int64]clock.Timestamp {
		out := map[int64]clock.Timestamp{}
		seen := map[clock.Timestamp]bool{}
		for s := 0; s < r.NumShards(); s++ {
			for _, e := range r.Shard(s).log.Entries() {
				if seen[e.TS] {
					t.Fatalf("%s: replica %d holds two updates stamped %s", stage, r.ID(), e.TS)
				}
				seen[e.TS] = true
				out[e.U.(spec.AddKey).N] = e.TS
			}
		}
		return out
	}
	check := func(stage string) {
		for _, r := range reps {
			held := stamps(stage, r)
			for q := range issued {
				var prev clock.Timestamp
				for _, n := range issued[q] {
					ts, ok := held[n]
					if !ok {
						continue // not delivered yet
					}
					if ts.Proc != q || !prev.Less(ts) {
						t.Fatalf("%s: replica %d holds process %d's update %d at %s after %s", stage, r.ID(), q, n, ts, prev)
					}
					prev = ts
				}
			}
		}
	}
	issue(0, 20)
	issue(1, 20)
	check("4 shards")
	net.Quiesce()
	check("4 shards, settled")

	reps[1].Resize(2)
	issue(1, 10)
	check("after Resize(2)")

	// Replica 0 still runs 4 shards, so replica 1 absorbs its updates as
	// cross-epoch deliveries; replica 1's next stamps must exceed them.
	issue(0, 10)
	net.Quiesce()
	var absorbed uint64
	for _, ts := range stamps("absorbed", reps[1]) {
		absorbed = max(absorbed, ts.Clock)
	}
	from := len(issued[1])
	issue(1, 10)
	held := stamps("after Absorb", reps[1])
	for _, n := range issued[1][from:] {
		if ts := held[n]; ts.Clock <= absorbed {
			t.Fatalf("update %d stamped %s, not above the absorbed clock %d", n, ts, absorbed)
		}
	}
	check("after Absorb")
	reps[0].Resize(2)
	issue(0, 5)
	net.Quiesce()
	check("both at 2 shards, settled")
}
