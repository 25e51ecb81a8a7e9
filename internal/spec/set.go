package spec

import (
	"fmt"
	"sort"
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
// by the shard owning v alone — where R walks and sorts the whole set.
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
// elements and C(v) membership of one. States are map[string]bool with
// only true entries.
type SetSpec struct{ builtinQueries }

// Set returns the set UQ-ADT.
func Set() SetSpec { return SetSpec{} }

// Name implements UQADT.
func (SetSpec) Name() string { return "set" }

// Initial implements UQADT: the empty set.
func (SetSpec) Initial() State { return map[string]bool{} }

// Apply implements UQADT: T(s, I(v)) = s ∪ {v}, T(s, D(v)) = s \ {v}.
func (SetSpec) Apply(s State, u Update) State {
	m := s.(map[string]bool)
	switch op := u.(type) {
	case Ins:
		m[op.V] = true
	case Del:
		delete(m, op.V)
	default:
		panic(fmt.Sprintf("spec: set does not recognize update %T", u))
	}
	return m
}

// Clone implements UQADT.
func (SetSpec) Clone(s State) State {
	m := s.(map[string]bool)
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Query implements UQADT: G(s, R) = s, rendered canonically, and
// G(s, C(v)) = (v ∈ s).
func (SetSpec) Query(s State, in QueryInput) QueryOutput {
	switch q := in.(type) {
	case Read:
		return setElems(s.(map[string]bool))
	case Has:
		return Bool(s.(map[string]bool)[q.V])
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
	return setElems(s.(map[string]bool)).String()
}

// ApplyUndo implements Undoable: the inverse of an insertion is a
// deletion unless the element was already present (then a no-op), and
// symmetrically for deletions.
func (sp SetSpec) ApplyUndo(s State, u Update) (State, Undo) {
	m := s.(map[string]bool)
	switch op := u.(type) {
	case Ins:
		if m[op.V] {
			return m, func(t State) State { return t }
		}
		m[op.V] = true
		v := op.V
		return m, func(t State) State {
			delete(t.(map[string]bool), v)
			return t
		}
	case Del:
		if !m[op.V] {
			return m, func(t State) State { return t }
		}
		delete(m, op.V)
		v := op.V
		return m, func(t State) State {
			t.(map[string]bool)[v] = true
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
	m := make(map[string]bool, len(read))
	for _, v := range read {
		m[v] = true
	}
	for v, present := range has {
		switch {
		case haveRead && m[v] != present:
			return nil, false
		case present:
			m[v] = true
		}
	}
	return m, true
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

// setElems renders a set state canonically.
func setElems(m map[string]bool) Elems {
	out := make([]string, 0, len(m))
	for k, present := range m {
		if present {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
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
