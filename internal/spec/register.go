package spec

import "fmt"

// Write is the register update W(v): overwrite the register content.
type Write struct{ V string }

// String renders the update, e.g. "W(1)".
func (w Write) String() string { return fmt.Sprintf("W(%s)", w.V) }

// RegVal is the register query output: the current value.
type RegVal string

// String renders the output.
func (v RegVal) String() string { return string(v) }

// RegisterSpec is a single read/write register: the query R returns the
// last written value, or the initial value if none was written. It is
// the one-cell instance of the shared memory of Algorithm 2.
type RegisterSpec struct {
	// Init is the initial value v0.
	Init string
}

// Register returns a register UQ-ADT with initial value v0.
func Register(v0 string) RegisterSpec { return RegisterSpec{Init: v0} }

// Name implements UQADT.
func (RegisterSpec) Name() string { return "register" }

// Initial implements UQADT.
func (r RegisterSpec) Initial() State { return r.Init }

// Apply implements UQADT: T(s, W(v)) = v.
func (RegisterSpec) Apply(s State, u Update) State {
	w, ok := u.(Write)
	if !ok {
		panic(fmt.Sprintf("spec: register does not recognize update %T", u))
	}
	return w.V
}

// Clone implements UQADT; register states are immutable strings.
func (RegisterSpec) Clone(s State) State { return s }

// Query implements UQADT: G(s, R) = s.
func (RegisterSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(Read); !ok {
		panic(fmt.Sprintf("spec: register does not recognize query %T", in))
	}
	return RegVal(s.(string))
}

// EqualOutput implements UQADT.
func (RegisterSpec) EqualOutput(a, b QueryOutput) bool {
	va, ok := a.(RegVal)
	if !ok {
		return false
	}
	vb, ok := b.(RegVal)
	return ok && va == vb
}

// KeyState implements UQADT.
func (RegisterSpec) KeyState(s State) string { return s.(string) }

// MaskKey implements Masking: the register is one cell, so every write
// masks every earlier one.
func (RegisterSpec) MaskKey(Update) string { return "" }

// ApplyUndo implements Undoable: a write's inverse restores the
// previous content.
func (RegisterSpec) ApplyUndo(s State, u Update) (State, Undo) {
	w, ok := u.(Write)
	if !ok {
		panic(fmt.Sprintf("spec: register does not recognize update %T", u))
	}
	prev := s
	return w.V, func(State) State { return prev }
}

// ExplainState implements StateExplainer.
func (RegisterSpec) ExplainState(obs []Observation) (State, bool) {
	if len(obs) == 0 {
		return "", true
	}
	first, ok := obs[0].Out.(RegVal)
	if !ok {
		return nil, false
	}
	for _, o := range obs[1:] {
		v, ok := o.Out.(RegVal)
		if !ok || v != first {
			return nil, false
		}
	}
	return string(first), true
}

// EncodeUpdate implements Codec.
func (sp RegisterSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (RegisterSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	w, ok := u.(Write)
	if !ok {
		return nil, fmt.Errorf("spec: register does not recognize update %T", u)
	}
	return append(dst, w.V...), nil
}

// DecodeUpdate implements Codec.
func (RegisterSpec) DecodeUpdate(b []byte) (Update, error) {
	return Write{V: string(b)}, nil
}
