package spec

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Add is the counter update: add N (possibly negative) to the counter.
type Add struct{ N int64 }

// String renders the update, e.g. "Inc(3)" or "Dec(2)".
func (a Add) String() string {
	if a.N < 0 {
		return fmt.Sprintf("Dec(%d)", -a.N)
	}
	return fmt.Sprintf("Inc(%d)", a.N)
}

// CtrVal is the counter query output.
type CtrVal int64

// String renders the output.
func (v CtrVal) String() string { return strconv.FormatInt(int64(v), 10) }

// CounterSpec is an integer counter with commutative increment and
// decrement updates and a read query. Because all updates commute it is
// a pure CRDT: every linearization of a fixed update set yields the
// same state, which is why (§VII-C) the naive eager-apply
// implementation is already update consistent for it.
type CounterSpec struct{ builtinQueries }

// Counter returns the counter UQ-ADT.
func Counter() CounterSpec { return CounterSpec{} }

// Name implements UQADT.
func (CounterSpec) Name() string { return "counter" }

// Initial implements UQADT.
func (CounterSpec) Initial() State { return int64(0) }

// Apply implements UQADT.
func (CounterSpec) Apply(s State, u Update) State {
	a, ok := u.(Add)
	if !ok {
		panic(fmt.Sprintf("spec: counter does not recognize update %T", u))
	}
	return s.(int64) + a.N
}

// Clone implements UQADT; counter states are immutable ints.
func (CounterSpec) Clone(s State) State { return s }

// Query implements UQADT.
func (CounterSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(Read); !ok {
		panic(fmt.Sprintf("spec: counter does not recognize query %T", in))
	}
	return CtrVal(s.(int64))
}

// EqualOutput implements UQADT.
func (CounterSpec) EqualOutput(a, b QueryOutput) bool {
	va, ok := a.(CtrVal)
	if !ok {
		return false
	}
	vb, ok := b.(CtrVal)
	return ok && va == vb
}

// KeyState implements UQADT.
func (CounterSpec) KeyState(s State) string {
	return strconv.FormatInt(s.(int64), 10)
}

// ApplyUndo implements Undoable.
func (CounterSpec) ApplyUndo(s State, u Update) (State, Undo) {
	a, ok := u.(Add)
	if !ok {
		panic(fmt.Sprintf("spec: counter does not recognize update %T", u))
	}
	return s.(int64) + a.N, func(t State) State { return t.(int64) - a.N }
}

// ExplainState implements StateExplainer.
func (CounterSpec) ExplainState(obs []Observation) (State, bool) {
	if len(obs) == 0 {
		return int64(0), true
	}
	first, ok := obs[0].Out.(CtrVal)
	if !ok {
		return nil, false
	}
	for _, o := range obs[1:] {
		v, ok := o.Out.(CtrVal)
		if !ok || v != first {
			return nil, false
		}
	}
	return int64(first), true
}

// CommutativeUpdates implements Commutative.
func (CounterSpec) CommutativeUpdates() bool { return true }

// EncodeUpdate implements Codec: a zig-zag varint.
func (sp CounterSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (CounterSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	a, ok := u.(Add)
	if !ok {
		return nil, fmt.Errorf("spec: counter does not recognize update %T", u)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], a.N)
	return append(dst, buf[:n]...), nil
}

// DecodeUpdate implements Codec.
func (CounterSpec) DecodeUpdate(b []byte) (Update, error) {
	n, read := binary.Varint(b)
	if read <= 0 {
		return nil, fmt.Errorf("spec: malformed counter update")
	}
	return Add{N: n}, nil
}
