package spec

import (
	"fmt"
	"strings"
)

// Bottom is the query output returned by Front/Top on an empty
// queue or stack.
const Bottom = RegVal("⊥")

// Enq is the queue update enqueue(v).
type Enq struct{ V string }

// String renders the update, e.g. "Enq(1)".
func (e Enq) String() string { return fmt.Sprintf("Enq(%s)", e.V) }

// DeqFront is the queue update "delete front". The paper (§I) requires
// mixed update-query operations such as dequeue to be separated into a
// query half ("lookup front", the Front query) and an update half
// (this operation); deleting from an empty queue is a no-op.
type DeqFront struct{}

// String renders the update.
func (DeqFront) String() string { return "Deq" }

// Front is the queue query "lookup front": the oldest enqueued value
// still present, or Bottom when the queue is empty.
type Front struct{}

// String renders the query input.
func (Front) String() string { return "Front" }

// QueueSpec is a FIFO queue presented as a UQ-ADT. States are []string
// from front to back.
type QueueSpec struct{ builtinQueries }

// Queue returns the FIFO queue UQ-ADT.
func Queue() QueueSpec { return QueueSpec{} }

// Name implements UQADT.
func (QueueSpec) Name() string { return "queue" }

// Initial implements UQADT.
func (QueueSpec) Initial() State { return []string(nil) }

// Apply implements UQADT.
func (QueueSpec) Apply(s State, u Update) State {
	q := s.([]string)
	switch u.(type) {
	case Enq:
		return append(q, u.(Enq).V)
	case DeqFront:
		if len(q) == 0 {
			return q
		}
		return q[1:]
	default:
		panic(fmt.Sprintf("spec: queue does not recognize update %T", u))
	}
}

// Clone implements UQADT.
func (QueueSpec) Clone(s State) State {
	q := s.([]string)
	return append([]string(nil), q...)
}

// Query implements UQADT.
func (QueueSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(Front); !ok {
		panic(fmt.Sprintf("spec: queue does not recognize query %T", in))
	}
	q := s.([]string)
	if len(q) == 0 {
		return Bottom
	}
	return RegVal(q[0])
}

// EqualOutput implements UQADT.
func (QueueSpec) EqualOutput(a, b QueryOutput) bool {
	va, ok := a.(RegVal)
	if !ok {
		return false
	}
	vb, ok := b.(RegVal)
	return ok && va == vb
}

// KeyState implements UQADT.
func (QueueSpec) KeyState(s State) string {
	return strings.Join(s.([]string), "|")
}

// ExplainState implements StateExplainer: all Front observations must
// agree (G is single-valued); the witness state is the one-element
// queue holding that value, or the empty queue for Bottom.
func (QueueSpec) ExplainState(obs []Observation) (State, bool) {
	return explainFrontTop(obs, func(in QueryInput) bool {
		_, ok := in.(Front)
		return ok
	})
}

// ApplyUndo implements Undoable: an enqueue's inverse drops the back;
// a delete-front's inverse re-prepends the removed element.
func (sp QueueSpec) ApplyUndo(s State, u Update) (State, Undo) {
	q := s.([]string)
	switch u.(type) {
	case Enq:
		next := sp.Apply(q, u).([]string)
		return next, func(t State) State {
			ts := t.([]string)
			return ts[:len(ts)-1]
		}
	case DeqFront:
		if len(q) == 0 {
			return q, func(t State) State { return t }
		}
		front := q[0]
		return q[1:], func(t State) State {
			return append([]string{front}, t.([]string)...)
		}
	default:
		panic(fmt.Sprintf("spec: queue does not recognize update %T", u))
	}
}

// EncodeUpdate implements Codec: 'e'+value for enqueue, 'd' for
// delete-front.
func (sp QueueSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (QueueSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	switch op := u.(type) {
	case Enq:
		return append(append(dst, 'e'), op.V...), nil
	case DeqFront:
		return append(dst, 'd'), nil
	default:
		return nil, fmt.Errorf("spec: queue does not recognize update %T", u)
	}
}

// DecodeUpdate implements Codec.
func (QueueSpec) DecodeUpdate(b []byte) (Update, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty queue update")
	}
	switch b[0] {
	case 'e':
		return Enq{V: string(b[1:])}, nil
	case 'd':
		return DeqFront{}, nil
	default:
		return nil, fmt.Errorf("spec: unknown queue update tag %q", b[0])
	}
}

// EncodeState implements StateCodec.
func (QueueSpec) EncodeState(s State) ([]byte, error) {
	return encodeStrings(s.([]string)), nil
}

// DecodeState implements StateCodec.
func (QueueSpec) DecodeState(b []byte) (State, error) {
	items, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	return items, nil
}

// Push is the stack update push(v).
type Push struct{ V string }

// String renders the update, e.g. "Push(1)".
func (p Push) String() string { return fmt.Sprintf("Push(%s)", p.V) }

// PopTop is the stack update "delete top" — the update half of pop, as
// prescribed in §I for the stack. Popping an empty stack is a no-op.
type PopTop struct{}

// String renders the update.
func (PopTop) String() string { return "Pop" }

// Top is the stack query "lookup top".
type Top struct{}

// String renders the query input.
func (Top) String() string { return "Top" }

// StackSpec is a LIFO stack presented as a UQ-ADT. States are []string
// from bottom to top.
type StackSpec struct{ builtinQueries }

// Stack returns the LIFO stack UQ-ADT.
func Stack() StackSpec { return StackSpec{} }

// Name implements UQADT.
func (StackSpec) Name() string { return "stack" }

// Initial implements UQADT.
func (StackSpec) Initial() State { return []string(nil) }

// Apply implements UQADT.
func (StackSpec) Apply(s State, u Update) State {
	st := s.([]string)
	switch u.(type) {
	case Push:
		return append(st, u.(Push).V)
	case PopTop:
		if len(st) == 0 {
			return st
		}
		return st[:len(st)-1]
	default:
		panic(fmt.Sprintf("spec: stack does not recognize update %T", u))
	}
}

// Clone implements UQADT.
func (StackSpec) Clone(s State) State {
	st := s.([]string)
	return append([]string(nil), st...)
}

// Query implements UQADT.
func (StackSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(Top); !ok {
		panic(fmt.Sprintf("spec: stack does not recognize query %T", in))
	}
	st := s.([]string)
	if len(st) == 0 {
		return Bottom
	}
	return RegVal(st[len(st)-1])
}

// EqualOutput implements UQADT.
func (StackSpec) EqualOutput(a, b QueryOutput) bool {
	va, ok := a.(RegVal)
	if !ok {
		return false
	}
	vb, ok := b.(RegVal)
	return ok && va == vb
}

// KeyState implements UQADT.
func (StackSpec) KeyState(s State) string {
	return strings.Join(s.([]string), "|")
}

// ExplainState implements StateExplainer: all Top observations must
// agree; the witness state is the one-element stack holding that value,
// or the empty stack for Bottom.
func (StackSpec) ExplainState(obs []Observation) (State, bool) {
	return explainFrontTop(obs, func(in QueryInput) bool {
		_, ok := in.(Top)
		return ok
	})
}

// ApplyUndo implements Undoable: a push's inverse drops the top; a
// pop's inverse re-pushes the removed element.
func (sp StackSpec) ApplyUndo(s State, u Update) (State, Undo) {
	st := s.([]string)
	switch u.(type) {
	case Push:
		next := sp.Apply(st, u).([]string)
		return next, func(t State) State {
			ts := t.([]string)
			return ts[:len(ts)-1]
		}
	case PopTop:
		if len(st) == 0 {
			return st, func(t State) State { return t }
		}
		top := st[len(st)-1]
		return st[:len(st)-1], func(t State) State {
			return append(t.([]string), top)
		}
	default:
		panic(fmt.Sprintf("spec: stack does not recognize update %T", u))
	}
}

// EncodeUpdate implements Codec: 'p'+value for push, 'o' for pop-top.
func (sp StackSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (StackSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	switch op := u.(type) {
	case Push:
		return append(append(dst, 'p'), op.V...), nil
	case PopTop:
		return append(dst, 'o'), nil
	default:
		return nil, fmt.Errorf("spec: stack does not recognize update %T", u)
	}
}

// DecodeUpdate implements Codec.
func (StackSpec) DecodeUpdate(b []byte) (Update, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty stack update")
	}
	switch b[0] {
	case 'p':
		return Push{V: string(b[1:])}, nil
	case 'o':
		return PopTop{}, nil
	default:
		return nil, fmt.Errorf("spec: unknown stack update tag %q", b[0])
	}
}

// EncodeState implements StateCodec.
func (StackSpec) EncodeState(s State) ([]byte, error) {
	return encodeStrings(s.([]string)), nil
}

// DecodeState implements StateCodec.
func (StackSpec) DecodeState(b []byte) (State, error) {
	items, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	return items, nil
}

// explainFrontTop is the shared explainer for single-peek query types:
// every observation must be the same RegVal; Bottom is explained by the
// empty sequence, a value v by the singleton sequence [v].
func explainFrontTop(obs []Observation, inOK func(QueryInput) bool) (State, bool) {
	if len(obs) == 0 {
		return []string(nil), true
	}
	var want RegVal
	for i, o := range obs {
		if !inOK(o.In) {
			return nil, false
		}
		v, ok := o.Out.(RegVal)
		if !ok {
			return nil, false
		}
		if i == 0 {
			want = v
		} else if v != want {
			return nil, false
		}
	}
	if want == Bottom {
		return []string(nil), true
	}
	return []string{string(want)}, true
}
