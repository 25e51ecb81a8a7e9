package spec

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// WriteKey is the memory update write(x, v).
type WriteKey struct {
	K string
	V string
}

// String renders the update, e.g. "W(x,1)".
func (w WriteKey) String() string { return fmt.Sprintf("W(%s,%s)", w.K, w.V) }

// ReadKey is the memory query read(x): it returns the last value
// written to register x, or the initial value.
type ReadKey struct{ K string }

// String renders the query input, e.g. "R(x)".
func (r ReadKey) String() string { return fmt.Sprintf("R(%s)", r.K) }

// MemorySpec is the shared memory of Algorithm 2: a set X of registers
// holding values from V, with per-register writes and reads. States are
// map[string]string holding only explicitly written registers; reads of
// unwritten registers return Init.
type MemorySpec struct {
	// Init is the initial value v0 of every register.
	Init string
}

// Memory returns the register-map UQ-ADT with initial value v0.
func Memory(v0 string) MemorySpec { return MemorySpec{Init: v0} }

// Name implements UQADT.
func (MemorySpec) Name() string { return "memory" }

// Initial implements UQADT.
func (MemorySpec) Initial() State { return map[string]string{} }

// Apply implements UQADT.
func (MemorySpec) Apply(s State, u Update) State {
	w, ok := u.(WriteKey)
	if !ok {
		panic(fmt.Sprintf("spec: memory does not recognize update %T", u))
	}
	m := s.(map[string]string)
	m[w.K] = w.V
	return m
}

// Clone implements UQADT.
func (MemorySpec) Clone(s State) State {
	m := s.(map[string]string)
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Query implements UQADT.
func (sp MemorySpec) Query(s State, in QueryInput) QueryOutput {
	r, ok := in.(ReadKey)
	if !ok {
		panic(fmt.Sprintf("spec: memory does not recognize query %T", in))
	}
	m := s.(map[string]string)
	if v, ok := m[r.K]; ok {
		return RegVal(v)
	}
	return RegVal(sp.Init)
}

// EqualOutput implements UQADT.
func (MemorySpec) EqualOutput(a, b QueryOutput) bool {
	va, ok := a.(RegVal)
	if !ok {
		return false
	}
	vb, ok := b.(RegVal)
	return ok && va == vb
}

// KeyState implements UQADT.
func (MemorySpec) KeyState(s State) string {
	m := s.(map[string]string)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, m[k])
	}
	return b.String()
}

// MaskKey implements Masking: a write masks every earlier write to the
// same register.
func (MemorySpec) MaskKey(u Update) string {
	w, ok := u.(WriteKey)
	if !ok {
		panic(fmt.Sprintf("spec: memory does not recognize update %T", u))
	}
	return w.K
}

// ApplyUndo implements Undoable: a write's inverse restores the
// register's previous binding (or removes it if the register was
// unwritten).
func (MemorySpec) ApplyUndo(s State, u Update) (State, Undo) {
	w, ok := u.(WriteKey)
	if !ok {
		panic(fmt.Sprintf("spec: memory does not recognize update %T", u))
	}
	m := s.(map[string]string)
	prev, had := m[w.K]
	m[w.K] = w.V
	k := w.K
	return m, func(t State) State {
		tm := t.(map[string]string)
		if had {
			tm[k] = prev
		} else {
			delete(tm, k)
		}
		return t
	}
}

// ExplainState implements StateExplainer: each observation constrains
// one register; conflicting constraints on the same register are
// unsatisfiable. Registers observed at the initial value are left
// unwritten.
func (sp MemorySpec) ExplainState(obs []Observation) (State, bool) {
	m := map[string]string{}
	for _, o := range obs {
		r, ok := o.In.(ReadKey)
		if !ok {
			return nil, false
		}
		v, ok := o.Out.(RegVal)
		if !ok {
			return nil, false
		}
		if prev, seen := m[r.K]; seen && prev != string(v) {
			return nil, false
		}
		m[r.K] = string(v)
	}
	for k, v := range m {
		if v == sp.Init {
			delete(m, k)
		}
	}
	return m, true
}

// EncodeUpdate implements Codec. Wire format: uvarint key length, key
// bytes, value bytes.
func (sp MemorySpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (MemorySpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	w, ok := u.(WriteKey)
	if !ok {
		return nil, fmt.Errorf("spec: memory does not recognize update %T", u)
	}
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(len(w.K)))
	dst = append(dst, lenb[:n]...)
	dst = append(dst, w.K...)
	return append(dst, w.V...), nil
}

// DecodeUpdate implements Codec.
func (MemorySpec) DecodeUpdate(b []byte) (Update, error) {
	klen, read := binary.Uvarint(b)
	if read <= 0 || uint64(len(b)-read) < klen {
		return nil, fmt.Errorf("spec: malformed memory update")
	}
	rest := b[read:]
	return WriteKey{K: string(rest[:klen]), V: string(rest[klen:])}, nil
}
