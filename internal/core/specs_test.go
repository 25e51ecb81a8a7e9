package core

import (
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Each built-in specification driven through plain replicas with its own
// update and query types (the handles users see live in the public
// package, objects.go): what is pinned here is the typed outcome of a
// few concurrent updates after quiescence, per spec.

// specCluster builds n replicas of adt over a fresh deterministic
// network.
func specCluster(n int, adt spec.UQADT) ([]*Replica, *transport.SimNetwork) {
	net := transport.NewSim(transport.SimOptions{N: n, Seed: 42})
	return Cluster(n, adt, net, ClusterOptions{}), net
}

func TestTypedSet(t *testing.T) {
	sets, net := specCluster(2, spec.Set())
	sets[0].Update(spec.Ins{V: "a"})
	sets[1].Update(spec.Ins{V: "b"})
	sets[1].Update(spec.Del{V: "a"}) // concurrent with the insert of a
	net.Quiesce()
	has := func(r *Replica, v string) bool { return bool(r.Query(spec.Has{V: v}).(spec.Bool)) }
	a, b := sets[0].Query(spec.Read{}).(spec.Elems), sets[1].Query(spec.Read{}).(spec.Elems)
	if len(a) != len(b) {
		t.Fatalf("diverged: %v vs %v", a, b)
	}
	if !has(sets[0], "b") || !has(sets[1], "b") {
		t.Fatalf("b must be present everywhere")
	}
	if has(sets[0], "a") != has(sets[1], "a") {
		t.Fatalf("disagreement on a")
	}
}

func TestTypedCounter(t *testing.T) {
	ctrs, net := specCluster(3, spec.Counter())
	ctrs[0].Update(spec.Add{N: 1})
	ctrs[1].Update(spec.Add{N: 10})
	ctrs[2].Update(spec.Add{N: -1})
	net.Quiesce()
	for i, c := range ctrs {
		if got := c.Query(spec.Read{}).(spec.CtrVal); got != 10 {
			t.Fatalf("counter %d = %d, want 10", i, got)
		}
	}
}

func TestTypedRegister(t *testing.T) {
	regs, net := specCluster(2, spec.Register("init"))
	read := func(r *Replica) spec.RegVal { return r.Query(spec.Read{}).(spec.RegVal) }
	if got := read(regs[0]); got != "init" {
		t.Fatalf("initial: %s", got)
	}
	regs[0].Update(spec.Write{V: "a"})
	regs[1].Update(spec.Write{V: "b"})
	net.Quiesce()
	if read(regs[0]) != read(regs[1]) {
		t.Fatalf("registers diverged: %s vs %s", read(regs[0]), read(regs[1]))
	}
}

func TestTypedTextLog(t *testing.T) {
	logs, net := specCluster(2, spec.Log())
	logs[0].Update(spec.Append{V: "alice: hi"})
	logs[1].Update(spec.Append{V: "bob: hello"})
	logs[0].Update(spec.Append{V: "alice: bye"})
	net.Quiesce()
	a, b := logs[0].Query(spec.ReadLog{}).(spec.Lines), logs[1].Query(spec.ReadLog{}).(spec.Lines)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("line counts: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("documents diverged at line %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestTypedKV(t *testing.T) {
	kvs, net := specCluster(2, spec.Memory(""))
	get := func(r *Replica, k string) spec.RegVal { return r.Query(spec.ReadKey{K: k}).(spec.RegVal) }
	kvs[0].Update(spec.WriteKey{K: "user:1", V: "alice"})
	kvs[1].Update(spec.WriteKey{K: "user:2", V: "bob"})
	kvs[1].Update(spec.WriteKey{K: "user:1", V: "carol"}) // concurrent with replica 0's write
	net.Quiesce()
	if get(kvs[0], "user:1") != get(kvs[1], "user:1") {
		t.Fatalf("kv diverged on user:1")
	}
	if got := get(kvs[0], "user:2"); got != "bob" {
		t.Fatalf("user:2 = %q", got)
	}
}

func TestTypedSetWithEnginesAndGC(t *testing.T) {
	// Typed updates compose with an explicit engine and GC.
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 7, FIFO: true})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
		GC:        true, GCEvery: 4,
	})
	for k := 0; k < 40; k++ {
		if k%2 == 0 {
			reps[0].Update(spec.Ins{V: "x"})
		} else {
			reps[1].Update(spec.Del{V: "x"})
		}
		net.StepN(2)
	}
	net.Quiesce()
	if got, want := reps[0].StateKey(), reps[1].StateKey(); got != want {
		t.Fatalf("diverged: %s vs %s", got, want)
	}
}
