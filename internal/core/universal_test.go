package core

// The universality test matrix: Proposition 4 claims Algorithm 1 works
// for ANY UQ-ADT. This file drives every registered specification
// through the full replica stack — adversarial delivery, every query
// engine, crash faults — and requires convergence to identical states,
// plus engine-equivalence (all engines compute the same state at every
// point).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// randomUpdateFor produces a pseudo-random update for any built-in
// spec.
func randomUpdateFor(adt spec.UQADT, rng *rand.Rand) spec.Update {
	vals := []string{"a", "b", "c"}
	v := vals[rng.Intn(len(vals))]
	w := vals[rng.Intn(len(vals))]
	switch adt.(type) {
	case spec.SetSpec:
		if rng.Intn(2) == 0 {
			return spec.Ins{V: v}
		}
		return spec.Del{V: v}
	case spec.GSetSpec:
		return spec.Ins{V: v}
	case spec.RegisterSpec:
		return spec.Write{V: v}
	case spec.CounterSpec:
		return spec.Add{N: int64(rng.Intn(7) - 3)}
	case spec.CounterMapSpec:
		return spec.AddKey{K: v, N: int64(rng.Intn(7) - 3)}
	case spec.MemorySpec:
		return spec.WriteKey{K: v, V: w}
	case spec.QueueSpec:
		if rng.Intn(3) == 0 {
			return spec.DeqFront{}
		}
		return spec.Enq{V: v}
	case spec.StackSpec:
		if rng.Intn(3) == 0 {
			return spec.PopTop{}
		}
		return spec.Push{V: v}
	case spec.LogSpec:
		return spec.Append{V: v}
	case spec.SequenceSpec:
		if rng.Intn(3) == 0 {
			return spec.DelAt{Pos: rng.Intn(4)}
		}
		return spec.InsAt{Pos: rng.Intn(4), V: v}
	case spec.GraphSpec:
		switch rng.Intn(4) {
		case 0:
			return spec.AddV{V: v}
		case 1:
			return spec.RemV{V: v}
		case 2:
			return spec.AddE{U: v, V: w}
		default:
			return spec.RemE{U: v, V: w}
		}
	default:
		panic(fmt.Sprintf("no random update generator for %s", adt.Name()))
	}
}

// undoCapable reports whether the spec supports the undo engine.
func undoCapable(adt spec.UQADT) bool {
	_, ok := adt.(spec.Undoable)
	return ok
}

// TestUniversalityAllTypesAllEngines: for every registered type and
// every applicable engine, a 3-replica cluster under adversarial
// delivery converges, across several seeds.
func TestUniversalityAllTypesAllEngines(t *testing.T) {
	for _, name := range spec.Names() {
		adt, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		engines := []struct {
			label string
			mk    func() Engine
		}{
			{"replay", func() Engine { return NewReplayEngine() }},
			{"checkpoint", func() Engine { return NewCheckpointEngine(8) }},
			{"undo", nil}, // the default
		}
		for _, eng := range engines {
			eng := eng
			t.Run(name+"/"+eng.label, func(t *testing.T) {
				for seed := int64(0); seed < 6; seed++ {
					net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
					reps := Cluster(3, adt, net, ClusterOptions{NewEngine: eng.mk})
					rng := rand.New(rand.NewSource(seed * 131))
					for k := 0; k < 15; k++ {
						reps[rng.Intn(3)].Update(randomUpdateFor(adt, rng))
						net.StepN(rng.Intn(4))
					}
					net.Quiesce()
					want := reps[0].StateKey()
					for _, r := range reps[1:] {
						if got := r.StateKey(); got != want {
							t.Fatalf("seed %d: %s/%s diverged: %s vs %s",
								seed, name, eng.label, got, want)
						}
					}
				}
			})
		}
	}
}

// TestQuickEnginesAgreeAllUndoableTypes extends the engine-equivalence
// property to every undo-capable spec: for arbitrary out-of-order
// delivery, replay, checkpoint and undo compute identical states at
// every step.
func TestQuickEnginesAgreeAllUndoableTypes(t *testing.T) {
	for _, specName := range spec.Names() {
		adt, _ := spec.ByName(specName)
		if !undoCapable(adt) {
			continue
		}
		name := specName
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, nn uint8) bool {
				n := int(nn%25) + 1
				script := func() []Entry {
					rng := rand.New(rand.NewSource(seed))
					perm := rng.Perm(n)
					out := make([]Entry, n)
					for i, p := range perm {
						out[i] = Entry{
							TS: clock.Timestamp{Clock: uint64(p + 1), Proc: p % 3},
							U:  randomUpdateFor(adt, rng),
						}
					}
					return out
				}
				runEngine := func(eng Engine) []string {
					log := NewLog(adt)
					eng.Bind(adt, log)
					var states []string
					for _, e := range script() {
						at := log.Insert(e)
						eng.Inserted(at)
						states = append(states, adt.KeyState(eng.State()))
					}
					return states
				}
				replay := runEngine(NewReplayEngine())
				ckpt := runEngine(NewCheckpointEngine(4))
				undo := runEngine(NewUndoEngine())
				for i := range replay {
					if replay[i] != ckpt[i] || replay[i] != undo[i] {
						t.Logf("%s step %d: replay=%s ckpt=%s undo=%s",
							name, i, replay[i], ckpt[i], undo[i])
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUniversalConvergenceSemantics spot-checks that convergence
// states follow the sequential semantics for order-sensitive types:
// the queue converges to the same FIFO order everywhere, the stack to
// the same LIFO order, the graph respects integrity at every replica.
func TestUniversalConvergenceSemantics(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 44})
	reps := Cluster(2, spec.Queue(), net, ClusterOptions{})
	reps[0].Update(spec.Enq{V: "x"})
	reps[1].Update(spec.Enq{V: "y"})
	reps[0].Update(spec.DeqFront{})
	net.Quiesce()
	f0 := reps[0].Query(spec.Front{})
	f1 := reps[1].Query(spec.Front{})
	if f0 != f1 {
		t.Fatalf("queue fronts diverged: %v vs %v", f0, f1)
	}

	gnet := transport.NewSim(transport.SimOptions{N: 2, Seed: 45})
	greps := Cluster(2, spec.Graph(), gnet, ClusterOptions{})
	greps[0].Update(spec.AddV{V: "a"})
	greps[0].Update(spec.AddV{V: "b"})
	greps[0].Update(spec.AddE{U: "a", V: "b"})
	greps[1].Update(spec.RemV{V: "b"}) // concurrent with everything
	gnet.Quiesce()
	for _, r := range greps {
		val := r.Query(spec.ReadGraph{}).(spec.GraphVal)
		present := map[string]bool{}
		for _, v := range val.Vertices {
			present[v] = true
		}
		for _, e := range val.Edges {
			if !present[e[0]] || !present[e[1]] {
				t.Fatalf("replica %d exposes dangling edge %v in %v", r.ID(), e, val)
			}
		}
	}
	if greps[0].StateKey() != greps[1].StateKey() {
		t.Fatalf("graphs diverged")
	}
}
