package updatec

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// TestCausalEveryPath runs every registered object at the causal level on
// every path the level shares with the default one: plain delivery; lossy,
// duplicating links repaired by Sync; a partition healed; a crash
// recovered by anti-entropy, with and without GC; WithGC; the replay
// engine; a session's read-your-writes across failover; and, for every
// partitionable object, four shards, and a resize 1→4→2 mid-run — on the
// simulator with the backlog in flight, so causal payloads of an old
// epoch reach the gate, and on the live transport with writers racing the
// coordinated resize. Every case must converge, with equal ω answers on
// every replica; the cases without GC also equal the replay oracle.
func TestCausalEveryPath(t *testing.T) {
	paths := []string{"plain", "faults-sync", "partition-heal", "crash-recover", "gc-crash-recover", "gc", "replay", "session",
		"sharded", "resized", "resized-live"}
	for _, obj := range equivObjects(t) {
		for _, path := range paths {
			if _, ok := obj.adt.(spec.StateCodec); path == "gc-crash-recover" && !ok {
				// The rejoin pulls from peers that compacted past what the
				// crashed replica missed: a snapshot, which needs the codec.
				continue
			}
			if (path == "sharded" || path == "resized" || path == "resized-live") && !obj.partitionable() {
				continue
			}
			t.Run(obj.Name()+"/"+path, func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					causalRun(t, obj, path, seed)
				}
			})
		}
	}
}

func causalRun(t *testing.T, obj Object[Handle], path string, seed int64) {
	const steps = 240
	opts := []Option{WithConsistency(Causal), WithSeed(seed)}
	switch path {
	case "gc", "gc-crash-recover":
		opts = append(opts, WithGC(), WithFIFO())
	case "replay":
		opts = append(opts, withReplayEngine())
	case "sharded":
		opts = append(opts, WithShards(4))
	case "resized-live":
		causalLiveResize(t, obj, seed, steps)
		return
	}
	cl, hs, err := New(3, obj, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	resize := func(to int) {
		t.Helper()
		if cl.sim.Pending() == 0 {
			t.Fatalf("seed %d: vacuous resize to %d: no backlog in flight", seed, to)
		}
		must(cl.Resize(to))
	}
	var sess *Session[Handle]
	if path == "session" {
		sess, err = cl.Session(0)
		must(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		switch {
		case path == "faults-sync" && step == 0:
			must(cl.FaultAll(0.2, 0.2))
		case path == "faults-sync" && step == steps/2:
			must(cl.Sync())
		case path == "partition-heal" && step == steps/3:
			must(cl.Partition([]int{0}, []int{1, 2}))
		case path == "partition-heal" && step == 2*steps/3:
			must(cl.Heal())
		case (path == "crash-recover" || path == "gc-crash-recover") && step == steps/3:
			must(cl.Crash(2))
		case (path == "crash-recover" || path == "gc-crash-recover") && step == 2*steps/3:
			must(cl.Recover(2))
		case path == "resized" && step == steps/3:
			resize(4)
		case path == "resized" && step == 2*steps/3:
			resize(2)
		}
		u, _ := obj.RandomUpdate(rng, equivKeys[rng.Intn(len(equivKeys))])
		if p := rng.Intn(3); sess != nil && p == 0 {
			causalSessionStep(t, cl, sess, u, rng)
		} else {
			hs[p].Update(u)
		}
		for k := rng.Intn(4); k > 0 && cl.Deliver(); k-- {
		}
	}
	if path == "faults-sync" {
		must(cl.FaultAll(0, 0))
		cl.Settle()
		must(cl.Sync())
	}
	cl.Settle()
	causalConverged(t, cl, hs, seed, path != "gc" && path != "gc-crash-recover")
	var gated uint64
	for _, r := range cl.replicas {
		gated += r.Stats().Gated
	}
	if path == "plain" && gated == 0 {
		t.Fatalf("seed %d: vacuous run, no arrival waited for a dependency", seed)
	}
}

// causalConverged requires the cluster to have converged with equal ω
// answers on every replica and, with oracle set, that answer to be the
// replay oracle's: the paper-literal ReplayEngine on one replica of one
// shard holding replica 0's updates, merged in from its shards'
// snapshots. The oracle needs logs without a compacted base.
func causalConverged(t *testing.T, cl *Cluster[Handle], hs []Handle, seed int64, oracle bool) {
	t.Helper()
	if !cl.Converged() {
		t.Fatalf("seed %d: replicas did not converge", seed)
	}
	omega, _ := cl.obj.Omega()
	want := hs[0].Query(omega)
	for p, h := range hs {
		if got := h.Query(omega); !cl.obj.adt.EqualOutput(got, want) {
			t.Fatalf("seed %d: replica %d ω answer %v, replica 0 %v", seed, p, got, want)
		}
	}
	if !oracle {
		return
	}
	replay := core.NewReplica(core.Config{
		ID: 0, N: cl.n, ADT: cl.obj.adt, Codec: cl.obj.codec, Engine: core.NewReplayEngine(),
		Net: transport.NewSim(transport.SimOptions{N: cl.n, Seed: 1}),
	})
	r0 := cl.replicas[0]
	for s := 0; s < r0.NumShards(); s++ {
		snap, err := r0.Shard(s).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replay.MergeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	if got := replay.Query(omega); !cl.obj.adt.EqualOutput(got, want) {
		t.Fatalf("seed %d: replicas answer %v, the replay oracle %v", seed, want, got)
	}
}

// causalLiveResize is the resized path on the live transport: one writer
// per replica, and a coordinated resize 1→4→2 (core.ResizeCluster) that
// stalls them, drains the mailboxes and moves every replica's state,
// with the gate's one lock domain under concurrent writers and
// deliveries throughout.
func causalLiveResize(t *testing.T, obj Object[Handle], seed int64, steps int) {
	cl, hs, err := New(3, obj, WithConsistency(Causal))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var done atomic.Int64
	var wg sync.WaitGroup
	for p, h := range hs {
		wg.Add(1)
		go func(p int, h Handle) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(p)))
			for i := 0; i < steps/len(hs); i++ {
				u, _ := obj.RandomUpdate(rng, equivKeys[rng.Intn(len(equivKeys))])
				h.Update(u)
				done.Add(1)
			}
		}(p, h)
	}
	for _, at := range []struct{ ops, to int }{{steps / 3, 4}, {2 * steps / 3, 2}} {
		for done.Load() < int64(at.ops) {
			runtime.Gosched()
		}
		if err := cl.Resize(at.to); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	wg.Wait()
	cl.Settle()
	if got := cl.Shards(); got != 2 {
		t.Fatalf("seed %d: %d shards after the resizes, want 2", seed, got)
	}
	causalConverged(t, cl, hs, seed, true)
}

// causalSessionStep writes u through the session and fails it over to a
// random replica: the session's read must be refused until that replica
// has landed the write — the gate may hold it back — and then served
// with the state of a replica that has.
func causalSessionStep(t *testing.T, cl *Cluster[Handle], sess *Session[Handle], u spec.Update, rng *rand.Rand) {
	t.Helper()
	omega, _ := cl.obj.Omega()
	sess.Handle().Update(u)
	if !sess.TryQuery(func(h Handle) { h.Query(omega) }) {
		t.Fatal("a session must read its own write on the replica that took it")
	}
	to := rng.Intn(cl.n)
	sess.Switch(to)
	var got spec.QueryOutput
	for !sess.TryQuery(func(h Handle) { got = h.Query(omega) }) {
		if !cl.Deliver() {
			t.Fatalf("replica %d never covered the session's write", to)
		}
	}
	if want := cl.replicas[to].Query(omega); !cl.obj.adt.EqualOutput(got, want) {
		t.Fatalf("session read %v on replica %d, which reads %v", got, to, want)
	}
}
