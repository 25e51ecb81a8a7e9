package spec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetSemantics(t *testing.T) {
	sp := Set()
	s := sp.Initial()
	s = sp.Apply(s, Ins{"1"})
	s = sp.Apply(s, Ins{"2"})
	if got := sp.Query(s, Read{}).(Elems); got.String() != "{1, 2}" {
		t.Fatalf("after I(1) I(2): got %v", got)
	}
	s = sp.Apply(s, Del{"1"})
	if got := sp.Query(s, Read{}).(Elems); got.String() != "{2}" {
		t.Fatalf("after D(1): got %v", got)
	}
	s = sp.Apply(s, Del{"3"}) // deleting an absent element is a no-op
	if got := sp.Query(s, Read{}).(Elems); got.String() != "{2}" {
		t.Fatalf("after D(3): got %v", got)
	}
	s = sp.Apply(s, Ins{"2"}) // inserting a present element is a no-op
	if got := sp.Query(s, Read{}).(Elems); got.String() != "{2}" {
		t.Fatalf("after duplicate I(2): got %v", got)
	}
}

func TestSetCloneIsDeep(t *testing.T) {
	sp := Set()
	s := sp.Apply(sp.Initial(), Ins{"a"})
	c := sp.Clone(s)
	sp.Apply(c, Ins{"b"})
	if sp.KeyState(s) != "{a}" {
		t.Fatalf("clone aliased original: %s", sp.KeyState(s))
	}
}

func TestSetReinsertAfterDelete(t *testing.T) {
	// Unlike a 2P-Set, the sequential set allows re-insertion after
	// deletion; the UQ-ADT must reflect the sequential specification.
	sp := Set()
	s := Replay(sp, []Update{Ins{"x"}, Del{"x"}, Ins{"x"}})
	if got := sp.Query(s, Read{}).(Elems); got.String() != "{x}" {
		t.Fatalf("re-insert after delete: got %v", got)
	}
}

func TestElemsString(t *testing.T) {
	if (Elems{}).String() != "∅" {
		t.Fatalf("empty set should render as ∅")
	}
	if (Elems{"1"}).String() != "{1}" {
		t.Fatalf("singleton rendering wrong")
	}
}

func TestValidSequentialSetPaperWords(t *testing.T) {
	sp := Set()
	// w from the proof sketch of Fig. 1(b): I(1)·I(2)·D(1)·D(2) ends in ∅.
	word := []Op{
		UpdateOp(Ins{"1"}), UpdateOp(Ins{"2"}),
		UpdateOp(Del{"1"}), UpdateOp(Del{"2"}),
		QueryOp(Read{}, Elems{}),
	}
	if !ValidSequential(sp, word) {
		t.Fatalf("paper linearization rejected: %s", FormatWord(word))
	}
	// I(2)·D(1)·I(1)·D(2) ends in {1}.
	word = []Op{
		UpdateOp(Ins{"2"}), UpdateOp(Del{"1"}),
		UpdateOp(Ins{"1"}), UpdateOp(Del{"2"}),
		QueryOp(Read{}, Elems{"1"}),
	}
	if !ValidSequential(sp, word) {
		t.Fatalf("paper linearization rejected: %s", FormatWord(word))
	}
	// A wrong query output must be rejected.
	word = []Op{UpdateOp(Ins{"1"}), QueryOp(Read{}, Elems{})}
	if ValidSequential(sp, word) {
		t.Fatalf("invalid word accepted: %s", FormatWord(word))
	}
}

func TestValidSequentialFig2Words(t *testing.T) {
	sp := Set()
	// w1 = I(1)·I(3)·R/{1,3}·I(2)·R/{1,2,3}·D(3)·R/{1,2} (Fig. 2).
	w1 := []Op{
		UpdateOp(Ins{"1"}), UpdateOp(Ins{"3"}),
		QueryOp(Read{}, Elems{"1", "3"}),
		UpdateOp(Ins{"2"}),
		QueryOp(Read{}, Elems{"1", "2", "3"}),
		UpdateOp(Del{"3"}),
		QueryOp(Read{}, Elems{"1", "2"}),
	}
	if !ValidSequential(sp, w1) {
		t.Fatalf("w1 rejected: %s", FormatWord(w1))
	}
	// w2 = I(2)·D(3)·R/{2}·I(1)·R/{1,2}·I(3)·R/{1,2,3}.
	w2 := []Op{
		UpdateOp(Ins{"2"}), UpdateOp(Del{"3"}),
		QueryOp(Read{}, Elems{"2"}),
		UpdateOp(Ins{"1"}),
		QueryOp(Read{}, Elems{"1", "2"}),
		UpdateOp(Ins{"3"}),
		QueryOp(Read{}, Elems{"1", "2", "3"}),
	}
	if !ValidSequential(sp, w2) {
		t.Fatalf("w2 rejected: %s", FormatWord(w2))
	}
}

func TestRegisterSemantics(t *testing.T) {
	sp := Register("v0")
	s := sp.Initial()
	if got := sp.Query(s, Read{}); got != RegVal("v0") {
		t.Fatalf("initial read: got %v", got)
	}
	s = sp.Apply(s, Write{"a"})
	s = sp.Apply(s, Write{"b"})
	if got := sp.Query(s, Read{}); got != RegVal("b") {
		t.Fatalf("read after two writes: got %v", got)
	}
}

func TestCounterSemantics(t *testing.T) {
	sp := Counter()
	s := Replay(sp, []Update{Add{3}, Add{-1}, Add{5}})
	if got := sp.Query(s, Read{}); got != CtrVal(7) {
		t.Fatalf("counter value: got %v", got)
	}
}

func TestMemorySemantics(t *testing.T) {
	sp := Memory("0")
	s := sp.Initial()
	if got := sp.Query(s, ReadKey{"x"}); got != RegVal("0") {
		t.Fatalf("unwritten register: got %v", got)
	}
	s = sp.Apply(s, WriteKey{"x", "1"})
	s = sp.Apply(s, WriteKey{"y", "2"})
	s = sp.Apply(s, WriteKey{"x", "3"})
	if got := sp.Query(s, ReadKey{"x"}); got != RegVal("3") {
		t.Fatalf("read x: got %v", got)
	}
	if got := sp.Query(s, ReadKey{"y"}); got != RegVal("2") {
		t.Fatalf("read y: got %v", got)
	}
}

func TestQueueSemantics(t *testing.T) {
	sp := Queue()
	s := sp.Initial()
	if got := sp.Query(s, Front{}); got != Bottom {
		t.Fatalf("empty front: got %v", got)
	}
	s = sp.Apply(s, Enq{"a"})
	s = sp.Apply(s, Enq{"b"})
	if got := sp.Query(s, Front{}); got != RegVal("a") {
		t.Fatalf("front: got %v", got)
	}
	s = sp.Apply(s, DeqFront{})
	if got := sp.Query(s, Front{}); got != RegVal("b") {
		t.Fatalf("front after deq: got %v", got)
	}
	s = sp.Apply(s, DeqFront{})
	s = sp.Apply(s, DeqFront{}) // deq on empty queue is a no-op
	if got := sp.Query(s, Front{}); got != Bottom {
		t.Fatalf("front after drain: got %v", got)
	}
}

func TestStackSemantics(t *testing.T) {
	sp := Stack()
	s := sp.Initial()
	s = sp.Apply(s, Push{"a"})
	s = sp.Apply(s, Push{"b"})
	if got := sp.Query(s, Top{}); got != RegVal("b") {
		t.Fatalf("top: got %v", got)
	}
	s = sp.Apply(s, PopTop{})
	if got := sp.Query(s, Top{}); got != RegVal("a") {
		t.Fatalf("top after pop: got %v", got)
	}
}

func TestLogSemantics(t *testing.T) {
	sp := Log()
	s := Replay(sp, []Update{Append{"a"}, Append{"b"}})
	got := sp.Query(s, ReadLog{}).(Lines)
	if got.String() != "[a;b]" {
		t.Fatalf("log contents: got %v", got)
	}
	// Appends must not commute: the whole point of the log example.
	s2 := Replay(sp, []Update{Append{"b"}, Append{"a"}})
	if sp.KeyState(s) == sp.KeyState(s2) {
		t.Fatalf("appends unexpectedly commute")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		adt, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if adt.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, adt.Name())
		}
		// Initial state must be usable immediately.
		_ = adt.KeyState(adt.Initial())
	}
	if _, err := ByName("no-such-type"); err == nil {
		t.Fatalf("expected error for unknown type")
	}
}

// TestIsCommutative checks the Commutative declarations of four
// built-ins through the interface.
func TestIsCommutative(t *testing.T) {
	commutative := func(adt UQADT) bool {
		c, ok := adt.(Commutative)
		return ok && c.CommutativeUpdates()
	}
	if !commutative(Counter()) {
		t.Fatalf("counter should be commutative")
	}
	if !commutative(GSet()) {
		t.Fatalf("gset should be commutative")
	}
	if commutative(Set()) {
		t.Fatalf("set must not be commutative (I and D conflict)")
	}
	if commutative(Log()) {
		t.Fatalf("log must not be commutative")
	}
}

// randomSetUpdates builds a pseudo-random update word over a small
// support so that collisions (insert/delete of the same element) are
// frequent.
func randomSetUpdates(r *rand.Rand, n int) []Update {
	support := []string{"1", "2", "3"}
	ops := make([]Update, n)
	for i := range ops {
		v := support[r.Intn(len(support))]
		if r.Intn(2) == 0 {
			ops[i] = Ins{v}
		} else {
			ops[i] = Del{v}
		}
	}
	return ops
}

// TestQuickSetUndoRoundTrip: applying any update and then its undo is
// the identity on states — the invariant the undo-redo engine relies
// on.
func TestQuickSetUndoRoundTrip(t *testing.T) {
	sp := Set()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ops := randomSetUpdates(r, int(n%20))
		s := sp.Initial()
		for _, u := range ops {
			s = sp.Apply(s, u)
		}
		before := sp.KeyState(s)
		extra := randomSetUpdates(r, 1)[0]
		next, undo := sp.ApplyUndo(s, extra)
		restored := undo(next)
		return sp.KeyState(restored) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCounterCommutes: any permutation of counter updates reaches
// the same state (pure CRDT property claimed in §VII-C).
func TestQuickCounterCommutes(t *testing.T) {
	sp := Counter()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%8) + 2
		ops := make([]Update, k)
		for i := range ops {
			ops[i] = Add{int64(r.Intn(11) - 5)}
		}
		ref := sp.KeyState(Replay(sp, ops))
		perm := r.Perm(k)
		shuffled := make([]Update, k)
		for i, j := range perm {
			shuffled[i] = ops[j]
		}
		return sp.KeyState(Replay(sp, shuffled)) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetNotCommutativeWitness: the set has at least one
// non-commuting pair (I(v) and D(v)), so shuffles CAN change the state.
func TestQuickSetNotCommutativeWitness(t *testing.T) {
	sp := Set()
	a := sp.KeyState(Replay(sp, []Update{Ins{"1"}, Del{"1"}}))
	b := sp.KeyState(Replay(sp, []Update{Del{"1"}, Ins{"1"}}))
	if a == b {
		t.Fatalf("I(1)·D(1) and D(1)·I(1) should differ, both gave %s", a)
	}
}

// TestQuickMemoryUndoRoundTrip mirrors the set undo invariant for the
// register map.
func TestQuickMemoryUndoRoundTrip(t *testing.T) {
	sp := Memory("0")
	keys := []string{"x", "y"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := sp.Initial()
		for i := 0; i < int(n%10); i++ {
			s = sp.Apply(s, WriteKey{keys[r.Intn(2)], string(rune('a' + r.Intn(4)))})
		}
		before := sp.KeyState(s)
		next, undo := sp.ApplyUndo(s, WriteKey{keys[r.Intn(2)], "zz"})
		return sp.KeyState(undo(next)) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	cases := []struct {
		adt UQADT
		ops []Update
	}{
		{Set(), []Update{Ins{"hello"}, Del{""}, Ins{"日本"}}},
		{Register(""), []Update{Write{"v"}, Write{""}}},
		{Counter(), []Update{Add{0}, Add{-127}, Add{1 << 40}}},
		{Memory(""), []Update{WriteKey{"k", "v"}, WriteKey{"", ""}, WriteKey{"a=b", "c;d"}}},
		{Log(), []Update{Append{"line"}}},
	}
	for _, c := range cases {
		codec, ok := c.adt.(Codec)
		if !ok {
			t.Fatalf("%s: no codec", c.adt.Name())
		}
		for _, u := range c.ops {
			b, err := codec.EncodeUpdate(u)
			if err != nil {
				t.Fatalf("%s: encode %v: %v", c.adt.Name(), u, err)
			}
			got, err := codec.DecodeUpdate(b)
			if err != nil {
				t.Fatalf("%s: decode %v: %v", c.adt.Name(), u, err)
			}
			if got != u {
				t.Fatalf("%s: round trip %v -> %v", c.adt.Name(), u, got)
			}
		}
	}
}

func TestExplainState(t *testing.T) {
	// Set: consistent observations explain; inconsistent do not.
	var ex StateExplainer = Set()
	if _, ok := ex.ExplainState([]Observation{
		{Read{}, Elems{"1"}}, {Read{}, Elems{"1"}},
	}); !ok {
		t.Fatalf("consistent set observations should explain")
	}
	if _, ok := ex.ExplainState([]Observation{
		{Read{}, Elems{"1"}}, {Read{}, Elems{"2"}},
	}); ok {
		t.Fatalf("inconsistent set observations should not explain")
	}
	// Set membership: per-element constraints, consistent with any read.
	for _, c := range []struct {
		obs  []Observation
		want string // canonical explaining state, "" when none exists
	}{
		{[]Observation{{Has{"1"}, Bool(true)}, {Has{"2"}, Bool(false)}}, "{1}"},
		{[]Observation{{Has{"1"}, Bool(true)}, {Has{"1"}, Bool(true)}}, "{1}"},
		{[]Observation{{Has{"1"}, Bool(true)}, {Has{"1"}, Bool(false)}}, ""},
		{[]Observation{{Read{}, Elems{"1", "3"}}, {Has{"1"}, Bool(true)}, {Has{"2"}, Bool(false)}}, "{1, 3}"},
		{[]Observation{{Has{"2"}, Bool(true)}, {Read{}, Elems{"1", "3"}}}, ""},
		{[]Observation{{Read{}, Elems{"1", "3"}}, {Has{"3"}, Bool(false)}}, ""},
		{[]Observation{{Has{"1"}, Elems{"1"}}}, ""},
		{[]Observation{{Read{}, Bool(true)}}, ""},
	} {
		s, ok := ex.ExplainState(c.obs)
		if ok != (c.want != "") {
			t.Fatalf("set observations %v: explained=%v, want %v", c.obs, ok, c.want != "")
		}
		if ok && Set().KeyState(s) != c.want {
			t.Fatalf("set observations %v explained by %s, want %s", c.obs, Set().KeyState(s), c.want)
		}
	}
	// Memory: per-register constraints.
	ex = Memory("0")
	s, ok := ex.ExplainState([]Observation{
		{ReadKey{"x"}, RegVal("1")}, {ReadKey{"y"}, RegVal("2")},
	})
	if !ok {
		t.Fatalf("memory observations should explain")
	}
	sp := Memory("0")
	if got := sp.Query(s, ReadKey{"x"}); got != RegVal("1") {
		t.Fatalf("explained state wrong: %v", got)
	}
	if _, ok := ex.ExplainState([]Observation{
		{ReadKey{"x"}, RegVal("1")}, {ReadKey{"x"}, RegVal("2")},
	}); ok {
		t.Fatalf("conflicting register observations should not explain")
	}
}

func TestExplainedStateSatisfiesObservations(t *testing.T) {
	// Cross-check the StateExplainer contract G(s, in) = out on all
	// exported explainers.
	checks := []struct {
		adt UQADT
		obs []Observation
	}{
		{Set(), []Observation{{Read{}, Elems{"1", "2"}}}},
		{Set(), []Observation{{Has{"1"}, Bool(true)}, {Has{"2"}, Bool(false)}, {Read{}, Elems{"1", "3"}}}},
		{Register("init"), []Observation{{Read{}, RegVal("w")}}},
		{Counter(), []Observation{{Read{}, CtrVal(41)}}},
		{Log(), []Observation{{ReadLog{}, Lines{"a", "b"}}}},
	}
	for _, c := range checks {
		ex := c.adt.(StateExplainer)
		s, ok := ex.ExplainState(c.obs)
		if !ok {
			t.Fatalf("%s: explain failed", c.adt.Name())
		}
		for _, o := range c.obs {
			got := c.adt.Query(s, o.In)
			if !c.adt.EqualOutput(got, o.Out) {
				t.Fatalf("%s: G(s,%v)=%v, want %v", c.adt.Name(), o.In, got, o.Out)
			}
		}
	}
}

func TestGSetRejectsDelete(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("gset must panic on delete")
		}
	}()
	g := GSet()
	g.Apply(g.Initial(), Del{"x"})
}

func TestFormatWord(t *testing.T) {
	w := []Op{UpdateOp(Ins{"1"}), QueryOp(Read{}, Elems{"1"})}
	if got := FormatWord(w); got != "I(1)·R/{1}" {
		t.Fatalf("FormatWord = %q", got)
	}
}
