package spec

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Ins is the insertion update I(v) of the set S_Val (Example 1).
type Ins struct{ V string }

// String renders the update in the paper's notation, e.g. "I(1)".
func (i Ins) String() string { return fmt.Sprintf("I(%s)", i.V) }

// Del is the deletion update D(v) of the set S_Val.
type Del struct{ V string }

// String renders the update in the paper's notation, e.g. "D(1)".
func (d Del) String() string { return fmt.Sprintf("D(%s)", d.V) }

// Read is the parameterless read query R of the set; it returns the
// whole content of the set as an Elems value.
type Read struct{}

// String renders the query input in the paper's notation "R".
func (Read) String() string { return "R" }

// Has is the membership query C(v) of the set: whether v is present,
// returned as a Bool. It is the set's keyed point query — O(1) on the
// state, cached per (log version, v), and on a sharded replica served
// by the shard owning v alone — where R walks the whole set.
type Has struct{ V string }

// String renders the query input, e.g. "C(1)".
func (h Has) String() string { return fmt.Sprintf("C(%s)", h.V) }

// Bool is the query output of Has.
type Bool bool

// String renders the output as "⊤" or "⊥".
func (b Bool) String() string {
	if b {
		return "⊤"
	}
	return "⊥"
}

// SetSpec is the set object S_Val of Example 1: updates insert and
// delete single elements, the query R returns the finite set of present
// elements and C(v) membership of one. States are *setState: the
// present elements plus the sorted answer to R as of the last read.
type SetSpec struct{ builtinQueries }

// setState is a set state. It keeps the sorted answer to R between
// reads (§VII-C's "intermediate states"), so R merges what changed
// into it in O(n + k log k) for k new elements instead of sorting all
// n. Updates write only m; R alone maintains view and gen.
type setState struct {
	// m maps each present element to the generation it was inserted
	// in. An element stamped below gen was present at the last R, so
	// it is in view; one stamped gen is new since.
	m map[string]uint64

	// mu guards view and gen: R runs under a replica's shared lock, so
	// two readers can rebuild the view at once.
	mu   sync.Mutex
	view []string // ascending elements as of the last R; never written once published
	gen  uint64
}

// newSetState returns a never-read state holding the elements of m,
// every one stamped with generation 0.
func newSetState(m map[string]uint64) *setState {
	return &setState{m: m, view: []string{}}
}

// insert adds v, stamping it new unless it is already present.
func (st *setState) insert(v string) {
	if _, ok := st.m[v]; !ok {
		st.m[v] = st.gen
	}
}

// elems answers R: the present elements, ascending. The result is the
// state's view, shared with every later reader until the set changes;
// no one may write to it.
func (st *setState) elems() Elems {
	st.mu.Lock()
	defer st.mu.Unlock()
	add := make([]string, 0, max(len(st.m)-len(st.view), 0))
	for v, g := range st.m {
		if g == st.gen {
			add = append(add, v)
		}
	}
	old := len(st.m) - len(add)
	if len(add) == 0 && old == len(st.view) {
		return st.view
	}
	slices.Sort(add)
	out := add // nothing left from the view (on a first read, say): add is the answer
	if old > 0 {
		out = make([]string, 0, old+len(add))
		base := st.view
		if old < len(base) {
			// Part of the view left, or left and came back stamped
			// new. Keep the rest in out's tail: the merge below then
			// always reads base ahead of where it writes.
			kept := out[len(add):len(add)]
			for _, v := range base {
				if g, ok := st.m[v]; ok && g != st.gen {
					kept = append(kept, v)
				}
			}
			base = kept
		}
		for _, v := range add {
			i, _ := slices.BinarySearch(base, v)
			out = append(append(out, base[:i]...), v)
			base = base[i:]
		}
		out = append(out, base...)
	}
	st.view = out
	st.gen++
	return out
}

// Set returns the set UQ-ADT.
func Set() SetSpec { return SetSpec{} }

// Name implements UQADT.
func (SetSpec) Name() string { return "set" }

// Initial implements UQADT: the empty set.
func (SetSpec) Initial() State { return newSetState(map[string]uint64{}) }

// Apply implements UQADT: T(s, I(v)) = s ∪ {v}, T(s, D(v)) = s \ {v}.
func (SetSpec) Apply(s State, u Update) State {
	st := s.(*setState)
	switch op := u.(type) {
	case Ins:
		st.insert(op.V)
	case Del:
		delete(st.m, op.V)
	default:
		panic(fmt.Sprintf("spec: set does not recognize update %T", u))
	}
	return st
}

// Clone implements UQADT. The clone shares the immutable view.
func (SetSpec) Clone(s State) State {
	st := s.(*setState)
	st.mu.Lock()
	view, gen := st.view, st.gen
	st.mu.Unlock()
	return &setState{m: maps.Clone(st.m), view: view, gen: gen}
}

// Query implements UQADT: G(s, R) = s, rendered canonically, and
// G(s, C(v)) = (v ∈ s).
func (SetSpec) Query(s State, in QueryInput) QueryOutput {
	switch q := in.(type) {
	case Read:
		return s.(*setState).elems()
	case Has:
		_, ok := s.(*setState).m[q.V]
		return Bool(ok)
	default:
		panic(fmt.Sprintf("spec: set does not recognize query %T", in))
	}
}

// EqualOutput implements UQADT.
func (SetSpec) EqualOutput(a, b QueryOutput) bool {
	switch va := a.(type) {
	case Elems:
		vb, ok := b.(Elems)
		return ok && equalElems(va, vb)
	case Bool:
		vb, ok := b.(Bool)
		return ok && va == vb
	default:
		return false
	}
}

// KeyState implements UQADT.
func (SetSpec) KeyState(s State) string {
	return s.(*setState).elems().String()
}

// ApplyUndo implements Undoable: the inverse of an insertion is a
// deletion unless the element was already present (then a no-op), and
// symmetrically for deletions.
func (sp SetSpec) ApplyUndo(s State, u Update) (State, Undo) {
	st := s.(*setState)
	switch op := u.(type) {
	case Ins:
		if _, ok := st.m[op.V]; ok {
			return st, func(t State) State { return t }
		}
		st.m[op.V] = st.gen
		v := op.V
		return st, func(t State) State {
			delete(t.(*setState).m, v)
			return t
		}
	case Del:
		if _, ok := st.m[op.V]; !ok {
			return st, func(t State) State { return t }
		}
		delete(st.m, op.V)
		v := op.V
		return st, func(t State) State {
			t.(*setState).insert(v)
			return t
		}
	default:
		panic(fmt.Sprintf("spec: set does not recognize update %T", u))
	}
}

// ExplainState implements StateExplainer: a read R reveals the whole
// state, so all of them must report the same set; a membership
// observation C(v) constrains v alone. Conflicting constraints on one
// element — between two C(v), or between a C(v) and a read — are
// unsatisfiable. Without a read, the explaining state holds exactly
// the elements observed present.
func (SetSpec) ExplainState(obs []Observation) (State, bool) {
	var read Elems
	haveRead := false
	has := map[string]bool{}
	for _, o := range obs {
		switch out := o.Out.(type) {
		case Elems:
			if _, ok := o.In.(Read); !ok || (haveRead && !equalElems(read, out)) {
				return nil, false
			}
			read, haveRead = out, true
		case Bool:
			q, ok := o.In.(Has)
			if !ok {
				return nil, false
			}
			if prev, seen := has[q.V]; seen && prev != bool(out) {
				return nil, false
			}
			has[q.V] = bool(out)
		default:
			return nil, false
		}
	}
	m := make(map[string]uint64, len(read))
	for _, v := range read {
		m[v] = 0
	}
	for v, present := range has {
		_, in := m[v]
		switch {
		case haveRead && in != present:
			return nil, false
		case present:
			m[v] = 0
		}
	}
	return newSetState(m), true
}

// EncodeUpdate implements Codec. Wire format: one tag byte ('I' or 'D')
// followed by the element bytes.
func (sp SetSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (SetSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	switch op := u.(type) {
	case Ins:
		return append(append(dst, 'I'), op.V...), nil
	case Del:
		return append(append(dst, 'D'), op.V...), nil
	default:
		return nil, fmt.Errorf("spec: set does not recognize update %T", u)
	}
}

// DecodeUpdate implements Codec.
func (SetSpec) DecodeUpdate(b []byte) (Update, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty set update")
	}
	switch b[0] {
	case 'I':
		return Ins{V: string(b[1:])}, nil
	case 'D':
		return Del{V: string(b[1:])}, nil
	default:
		return nil, fmt.Errorf("spec: unknown set update tag %q", b[0])
	}
}

// GSetSpec is the grow-only set: the restriction of SetSpec to
// insertions. All its updates commute, making it a pure CRDT; the paper
// (§VII-C) observes that for such types the naive eager-apply
// implementation already achieves update consistency.
type GSetSpec struct{ SetSpec }

// GSet returns the grow-only set UQ-ADT.
func GSet() GSetSpec { return GSetSpec{} }

// Name implements UQADT.
func (GSetSpec) Name() string { return "gset" }

// Apply implements UQADT; deletions are rejected.
func (g GSetSpec) Apply(s State, u Update) State {
	if _, ok := u.(Del); ok {
		panic("spec: grow-only set does not support deletions")
	}
	return g.SetSpec.Apply(s, u)
}

// CommutativeUpdates implements Commutative.
func (GSetSpec) CommutativeUpdates() bool { return true }
