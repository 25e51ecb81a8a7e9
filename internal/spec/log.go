package spec

import (
	"fmt"
	"strings"
)

// Append is the log update append(v): add a line at the end of the
// shared document.
type Append struct{ V string }

// String renders the update, e.g. "App(a)".
func (a Append) String() string { return fmt.Sprintf("App(%s)", a.V) }

// ReadLog is the log query: it returns the whole document.
type ReadLog struct{}

// String renders the query input.
func (ReadLog) String() string { return "RL" }

// Lines is the log query output: the document lines in order.
type Lines []string

// String renders the document as "[a;b;c]".
func (l Lines) String() string {
	return "[" + strings.Join(l, ";") + "]"
}

// LogSpec is an append-only totally ordered log (a minimal model of the
// collaborative-editing objects that motivate intention preservation in
// §I). Appends do not commute — the document differs by line order —
// so, unlike a counter or a grow-only set, the log is not a pure CRDT
// and genuinely needs the update linearization that update consistency
// provides: all replicas converge to the same line order.
type LogSpec struct{ builtinQueries }

// Log returns the append-only log UQ-ADT.
func Log() LogSpec { return LogSpec{} }

// Name implements UQADT.
func (LogSpec) Name() string { return "log" }

// Initial implements UQADT.
func (LogSpec) Initial() State { return []string(nil) }

// appendLine is append growing a full document by doubling. The
// runtime's own policy settles at 1.25x for large slices, so folding an
// n-line log from scratch — the first read after a write burst —
// allocates about 5n slots through the discarded intermediate arrays;
// doubling allocates about 2n, which is what that read's latency and the
// garbage it leaves are made of. Small documents keep the runtime's
// policy (it doubles there already).
func appendLine(lines []string, v string) []string {
	if n := len(lines); n == cap(lines) && n >= 256 {
		grown := make([]string, n, 2*n)
		copy(grown, lines)
		lines = grown
	}
	return append(lines, v)
}

// Apply implements UQADT.
func (LogSpec) Apply(s State, u Update) State {
	a, ok := u.(Append)
	if !ok {
		panic(fmt.Sprintf("spec: log does not recognize update %T", u))
	}
	return appendLine(s.([]string), a.V)
}

// Clone implements UQADT.
func (LogSpec) Clone(s State) State {
	return append([]string(nil), s.([]string)...)
}

// Query implements UQADT.
func (LogSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(ReadLog); !ok {
		panic(fmt.Sprintf("spec: log does not recognize query %T", in))
	}
	st := s.([]string)
	return Lines(append(make([]string, 0, len(st)), st...))
}

// EqualOutput implements UQADT.
func (LogSpec) EqualOutput(a, b QueryOutput) bool {
	la, ok := a.(Lines)
	if !ok {
		return false
	}
	lb, ok := b.(Lines)
	if !ok || len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// KeyState implements UQADT.
func (LogSpec) KeyState(s State) string {
	return strings.Join(s.([]string), "\x1f")
}

// ApplyUndo implements Undoable.
func (LogSpec) ApplyUndo(s State, u Update) (State, Undo) {
	a, ok := u.(Append)
	if !ok {
		panic(fmt.Sprintf("spec: log does not recognize update %T", u))
	}
	next := appendLine(s.([]string), a.V)
	return next, func(t State) State {
		lines := t.([]string)
		return lines[:len(lines)-1]
	}
}

// ExplainState implements StateExplainer.
func (LogSpec) ExplainState(obs []Observation) (State, bool) {
	if len(obs) == 0 {
		return []string(nil), true
	}
	first, ok := obs[0].Out.(Lines)
	if !ok {
		return nil, false
	}
	sp := LogSpec{}
	for _, o := range obs[1:] {
		if !sp.EqualOutput(first, o.Out) {
			return nil, false
		}
	}
	return append([]string(nil), first...), true
}

// EncodeUpdate implements Codec.
func (sp LogSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (LogSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	a, ok := u.(Append)
	if !ok {
		return nil, fmt.Errorf("spec: log does not recognize update %T", u)
	}
	return append(dst, a.V...), nil
}

// DecodeUpdate implements Codec.
func (LogSpec) DecodeUpdate(b []byte) (Update, error) {
	return Append{V: string(b)}, nil
}
