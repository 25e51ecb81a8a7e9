package updatec

import (
	"math/rand"
	"testing"

	"updatec/internal/spec"
)

// TestCausalEveryPath runs every registered object at the causal level on
// every path the level shares with the default one: plain delivery; lossy,
// duplicating links repaired by Sync; a partition healed; a crash
// recovered by anti-entropy, with and without GC; WithGC; the replay
// engine; and a session's read-your-writes across failover. Every case
// must converge, with equal ω answers on every replica.
func TestCausalEveryPath(t *testing.T) {
	paths := []string{"plain", "faults-sync", "partition-heal", "crash-recover", "gc-crash-recover", "gc", "replay", "session"}
	for _, obj := range equivObjects(t) {
		for _, path := range paths {
			if _, ok := obj.adt.(spec.StateCodec); path == "gc-crash-recover" && !ok {
				// The rejoin pulls from peers that compacted past what the
				// crashed replica missed: a snapshot, which needs the codec.
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
	if !cl.Converged() {
		t.Fatalf("seed %d: replicas did not converge", seed)
	}
	omega, _ := obj.Omega()
	want := hs[0].Query(omega)
	for p, h := range hs {
		if got := h.Query(omega); !obj.adt.EqualOutput(got, want) {
			t.Fatalf("seed %d: replica %d ω answer %v, replica 0 %v", seed, p, got, want)
		}
	}
	var gated uint64
	for _, r := range cl.replicas {
		gated += r.Stats().Gated
	}
	if path == "plain" && gated == 0 {
		t.Fatalf("seed %d: vacuous run, no arrival waited for a dependency", seed)
	}
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
