package crdt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"updatec"
	"updatec/internal/core"
	"updatec/internal/crdt"
	"updatec/internal/spec"
	"updatec/internal/transport"
	"updatec/spectest"
)

// baselines lists the deletion-capable log-able set baselines: the spec
// each runs and how its processes issue I(v) and D(v).
var baselines = map[string]struct {
	adt   spec.UQADT
	issue crdt.Issue
}{
	"2p-set":  {crdt.TwoPhaseSet(), crdt.IssueSet},
	"pn-set":  {crdt.CounterSet(), crdt.IssuePN},
	"c-set":   {crdt.CounterSet(), crdt.IssueC},
	"or-set":  {crdt.ORSet(), crdt.IssueOR},
	"lww-set": {crdt.LWWSet(), crdt.IssueLWW},
}

// cluster is n replicas of one baseline on a fresh sim network.
type cluster struct {
	net   *transport.SimNetwork
	reps  []*core.Replica
	issue crdt.Issue
}

func newCluster(n int, seed int64, name string) *cluster {
	b := baselines[name]
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed})
	return &cluster{net: net, reps: core.Cluster(n, b.adt, net, core.ClusterOptions{}), issue: b.issue}
}

// op has process p issue I(v), or D(v) when del is set.
func (c *cluster) op(p int, v string, del bool) {
	if u, ok := c.issue(c.reps[p], p, v, del); ok {
		c.reps[p].Update(u)
	}
}

func (c *cluster) ins(p int, v string) { c.op(p, v, false) }
func (c *cluster) del(p int, v string) { c.op(p, v, true) }

// read renders process p's read R.
func (c *cluster) read(p int) string {
	return c.reps[p].Query(spec.Read{}).(spec.Elems).String()
}

// expect fails unless every replica reads want.
func (c *cluster) expect(t *testing.T, name, want string) {
	t.Helper()
	for p := range c.reps {
		if got := c.read(p); got != want {
			t.Fatalf("%s p%d: %s, want %s", name, p, got, want)
		}
	}
}

// TestQuickCRDTSetsConverge: every baseline converges under adversarial
// delivery, for any seed — the defining CRDT property.
func TestQuickCRDTSetsConverge(t *testing.T) {
	for name := range baselines {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				c := newCluster(3, seed, name)
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 15; k++ {
					c.op(rng.Intn(3), fmt.Sprint(rng.Intn(3)), rng.Intn(2) == 1)
					c.net.StepN(rng.Intn(4))
				}
				c.net.Quiesce()
				for p := 1; p < 3; p++ {
					if c.read(p) != c.read(0) {
						t.Logf("%s diverged: %s vs %s", name, c.read(p), c.read(0))
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

// TestNaiveSetDiverges: the eager non-CRDT set diverges when two
// replicas receive concurrent updates in different orders — the
// motivation for everything else.
func TestNaiveSetDiverges(t *testing.T) {
	var sent [2][]byte
	sets := make([]*crdt.NaiveSet, 2)
	for i := range sets {
		sets[i] = crdt.NewNaiveSet(i, func(b []byte) { sent[i] = b })
	}
	// The canonical conflict: concurrent I(x) and D(x), each applied
	// locally first, so the two replicas apply them in opposite orders.
	sets[0].Update(spec.Ins{V: "x"})
	sets[1].Update(spec.Del{V: "x"})
	sets[0].Deliver(1, sent[1])
	sets[1].Deliver(0, sent[0])
	sets[0].Deliver(0, sent[0]) // a self copy changes nothing
	a, b := sets[0].Query(spec.Read{}), sets[1].Query(spec.Read{})
	if fmt.Sprint(a) != "∅" || fmt.Sprint(b) != "{x}" {
		t.Fatalf("naive set replicas read %v and %v, want ∅ and {x}", a, b)
	}
}

// TestFig1bConflictMatrix reproduces §VI's point that every set
// resolves the Figure 1(b) workload differently: p0 does I(1)·D(2),
// p1 does I(2)·D(1), all four updates pairwise concurrent across
// processes.
func TestFig1bConflictMatrix(t *testing.T) {
	want := map[string]string{
		"2p-set":  "∅",      // tombstones win
		"pn-set":  "∅",      // counters cancel
		"c-set":   "{1, 2}", // deletes of absent elements issue nothing
		"or-set":  "{1, 2}", // inserts win over concurrent unobserved deletes
		"lww-set": "∅",      // deletes carry later local clocks
	}
	for name := range baselines {
		c := newCluster(2, 1, name)
		// Local ops first, no cross delivery until quiesce: maximal
		// concurrency.
		c.ins(0, "1")
		c.del(0, "2")
		c.ins(1, "2")
		c.del(1, "1")
		c.net.Quiesce()
		c.expect(t, name, want[name])
	}
}

func TestORSetInsertWinsPairwise(t *testing.T) {
	// Concurrent I(x) at p0 and D(x) at p1 (which observed an earlier
	// insert): the unobserved insert survives.
	c := newCluster(2, 3, "or-set")
	c.ins(0, "x")
	c.net.Quiesce()
	// Both now see x. p1 deletes while p0 concurrently re-inserts.
	c.ins(0, "x")
	c.del(1, "x")
	c.net.Quiesce()
	c.expect(t, "or-set (insert wins)", "{x}")
}

// TestORSetDeleteRemovesObserved: a deletion black-lists exactly the
// tags its issuer observed — the observed insert goes, an insert the
// issuer has not seen stays.
func TestORSetDeleteRemovesObserved(t *testing.T) {
	c := newCluster(2, 4, "or-set")
	c.ins(0, "x")
	c.net.Quiesce()
	c.net.Partition([]int{0}, []int{1})
	c.ins(0, "x") // unseen by p1
	u, _ := crdt.IssueOR(c.reps[1], 1, "x", true)
	if got := u.(crdt.OR).Tags; !slices.Equal(got, []crdt.Tag{{Proc: 0, Seq: 1}}) {
		t.Fatalf("p1's deletion carries %v, want the one observed tag 0.1", got)
	}
	c.reps[1].Update(u)
	if got := c.read(1); got != "∅" {
		t.Fatalf("observed delete: p1 reads %s, want ∅", got)
	}
	c.net.Heal()
	c.net.Quiesce()
	c.expect(t, "or-set (unobserved insert)", "{x}")
	c.del(1, "x")
	c.net.Quiesce()
	c.expect(t, "or-set (all observed)", "∅")
}

func TestTwoPhaseSetNoReinsert(t *testing.T) {
	c := newCluster(2, 5, "2p-set")
	c.ins(0, "x")
	c.net.Quiesce()
	c.del(0, "x")
	c.net.Quiesce()
	c.ins(1, "x") // re-insertion is forever lost in a 2P-Set
	c.net.Quiesce()
	c.expect(t, "2p-set", "∅")
}

func TestPNSetDoubleInsertNeedsDoubleDelete(t *testing.T) {
	c := newCluster(2, 6, "pn-set")
	c.ins(0, "x")
	c.ins(1, "x")
	c.net.Quiesce()
	c.del(0, "x")
	c.net.Quiesce()
	if got := c.read(1); got != "{x}" {
		t.Fatalf("after one delete of a doubly-inserted element: %s, want {x}", got)
	}
	c.del(1, "x")
	c.net.Quiesce()
	if got := c.read(0); got != "∅" {
		t.Fatalf("after two deletes: %s, want ∅", got)
	}
}

func TestCSetSequentialBehavesLikeSet(t *testing.T) {
	c := newCluster(2, 7, "c-set")
	c.ins(0, "x")
	c.net.Quiesce()
	c.del(1, "x")
	c.net.Quiesce()
	c.ins(0, "x") // re-insert after observed delete works (unlike 2P)
	c.net.Quiesce()
	c.expect(t, "c-set", "{x}")
	// An operation that changes nothing locally issues nothing.
	before := c.net.Stats().Broadcasts
	c.ins(1, "x")
	c.del(0, "y")
	if got := c.net.Stats().Broadcasts; got != before {
		t.Fatalf("no-op C-set operations broadcast %d updates", got-before)
	}
}

func TestLWWSetLastWriterWins(t *testing.T) {
	c := newCluster(2, 8, "lww-set")
	c.ins(0, "x") // (1,0)
	c.net.Quiesce()
	c.del(1, "x") // (2,1) - newer
	c.net.Quiesce()
	if got := c.read(0); got != "∅" {
		t.Fatalf("newer delete must win: %s", got)
	}
	c.ins(0, "x") // (3,0) - newest
	c.net.Quiesce()
	if got := c.read(1); got != "{x}" {
		t.Fatalf("newest insert must win: %s", got)
	}
}

func TestGSetGrowOnly(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 9})
	reps := core.Cluster(2, spec.GSet(), net, core.ClusterOptions{})
	reps[0].Update(spec.Ins{V: "1"})
	reps[1].Update(spec.Ins{V: "2"})
	net.Quiesce()
	for p, r := range reps {
		if got := r.Query(spec.Read{}).(spec.Elems).String(); got != "{1, 2}" {
			t.Fatalf("g-set p%d: %s", p, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("g-set delete must panic")
		}
	}()
	spec.GSet().Apply(spec.GSet().Initial(), spec.Del{V: "1"})
}

// objects defines each new spec through the public kit, with a random
// workload that reaches every update form, for the conformance harness.
var objects = map[string]updatec.Object[updatec.Handle]{
	"2p-set": define("crdt-2p-set", crdt.TwoPhaseSet(), func(rng *rand.Rand, key string) updatec.Update {
		if rng.Intn(3) == 0 {
			return spec.Del{V: key}
		}
		return spec.Ins{V: key}
	}),
	"counter-set": define("crdt-counter-set", crdt.CounterSet(), func(rng *rand.Rand, key string) updatec.Update {
		return spec.AddKey{K: key, N: int64(rng.Intn(5) - 2)}
	}),
	"or-set": define("crdt-or-set", crdt.ORSet(), func(rng *rand.Rand, key string) updatec.Update {
		tags := make([]crdt.Tag, 1)
		del := rng.Intn(3) == 0
		if del {
			tags = make([]crdt.Tag, rng.Intn(3))
		}
		for i := range tags {
			tags[i] = crdt.Tag{Proc: rng.Intn(3), Seq: uint64(rng.Intn(4) + 1)}
		}
		return crdt.OR{V: key, Del: del, Tags: tags}
	}),
	"lww-set": define("crdt-lww-set", crdt.LWWSet(), func(rng *rand.Rand, key string) updatec.Update {
		return crdt.LWW{V: key, Del: rng.Intn(2) == 0, Clock: uint64(rng.Intn(8)), Proc: rng.Intn(3)}
	}),
}

func define(name string, s updatec.Spec, gen func(*rand.Rand, string) updatec.Update) updatec.Object[updatec.Handle] {
	return updatec.MustDefine(name, s, nil, func(h updatec.Handle) updatec.Handle { return h },
		updatec.WithOmega(spec.Read{}), updatec.WithWorkload(gen))
}

// TestSpecConformance runs the public conformance harness over every
// spec of this package.
func TestSpecConformance(t *testing.T) {
	for name, obj := range objects {
		t.Run(name, func(t *testing.T) { spectest.Run(t, obj) })
	}
}

// TestUpdatesCommute: every spec here claims CommutativeUpdates, which
// is what lets Algorithm 1's log reproduce the CRDT whatever order its
// updates arrive in: folding one sample in two orders gives one state.
func TestUpdatesCommute(t *testing.T) {
	for name, obj := range objects {
		adt := obj.Spec()
		if c, ok := adt.(spec.Commutative); !ok || !c.CommutativeUpdates() {
			t.Fatalf("%s does not claim commutative updates", name)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 50; trial++ {
			var us []updatec.Update
			for i := 0; i < 12; i++ {
				u, _ := obj.RandomUpdate(rng, fmt.Sprint(rng.Intn(2)))
				us = append(us, u)
			}
			a, b := adt.Initial(), adt.Initial()
			for i, j := range rng.Perm(len(us)) {
				a, b = adt.Apply(a, us[i]), adt.Apply(b, us[j])
			}
			if ka, kb := adt.KeyState(a), adt.KeyState(b); ka != kb {
				t.Fatalf("%s: %v folds to %q in one order, %q in another", name, us, ka, kb)
			}
		}
	}
}

// TestDecodeRejectsMalformed: the OR- and LWW-set decoders read peer
// bytes, so malformed ones are an error, never a panic or an update.
func TestDecodeRejectsMalformed(t *testing.T) {
	for _, c := range []spec.Codec{crdt.ORSet(), crdt.LWWSet()} {
		for _, b := range [][]byte{nil, {'X'}, {'I'}, {'D', 0xff}, {'D', 5}, {'I', 1, 0x80}} {
			if u, err := c.DecodeUpdate(b); err == nil {
				t.Errorf("%T decoded %q to %v", c, b, u)
			}
		}
	}
}
