package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// The sequence is the collaborative-editing object proper: elements
// inserted at positions. Positional updates are the textbook
// non-commutative case — InsAt(0,a) and InsAt(0,b) produce different
// documents in different orders, and a position may be stale by the
// time a remote update applies. The sequential specification makes
// every update a *total* function by clamping positions, so any
// linearization is executable; update consistency then guarantees all
// replicas converge to the same document.

// InsAt is the sequence update "insert v at position pos" (clamped to
// the current length).
type InsAt struct {
	Pos int
	V   string
}

// String renders the update, e.g. "InsAt(0,a)".
func (i InsAt) String() string { return fmt.Sprintf("InsAt(%d,%s)", i.Pos, i.V) }

// DelAt is the sequence update "delete the element at position pos"
// (no-op when out of range).
type DelAt struct{ Pos int }

// String renders the update.
func (d DelAt) String() string { return fmt.Sprintf("DelAt(%d)", d.Pos) }

// ReadSeq is the sequence query: it returns the whole sequence.
type ReadSeq struct{}

// String renders the query input.
func (ReadSeq) String() string { return "RS" }

// SequenceSpec is the positional-sequence UQ-ADT.
type SequenceSpec struct{ builtinQueries }

// Sequence returns the positional-sequence UQ-ADT.
func Sequence() SequenceSpec { return SequenceSpec{} }

// Name implements UQADT.
func (SequenceSpec) Name() string { return "sequence" }

// Initial implements UQADT.
func (SequenceSpec) Initial() State { return []string(nil) }

// Apply implements UQADT.
func (SequenceSpec) Apply(s State, u Update) State {
	seq := s.([]string)
	switch op := u.(type) {
	case InsAt:
		pos := clamp(op.Pos, len(seq))
		seq = append(seq, "")
		copy(seq[pos+1:], seq[pos:])
		seq[pos] = op.V
		return seq
	case DelAt:
		if op.Pos < 0 || op.Pos >= len(seq) {
			return seq
		}
		return append(seq[:op.Pos], seq[op.Pos+1:]...)
	default:
		panic(fmt.Sprintf("spec: sequence does not recognize update %T", u))
	}
}

func clamp(pos, n int) int {
	if pos < 0 {
		return 0
	}
	if pos > n {
		return n
	}
	return pos
}

// Clone implements UQADT.
func (SequenceSpec) Clone(s State) State {
	return append([]string(nil), s.([]string)...)
}

// Query implements UQADT.
func (SequenceSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(ReadSeq); !ok {
		panic(fmt.Sprintf("spec: sequence does not recognize query %T", in))
	}
	st := s.([]string)
	return Lines(append(make([]string, 0, len(st)), st...))
}

// EqualOutput implements UQADT.
func (SequenceSpec) EqualOutput(a, b QueryOutput) bool {
	return LogSpec{}.EqualOutput(a, b)
}

// KeyState implements UQADT.
func (SequenceSpec) KeyState(s State) string {
	return strings.Join(s.([]string), "\x1f")
}

// ApplyUndo implements Undoable.
func (sp SequenceSpec) ApplyUndo(s State, u Update) (State, Undo) {
	seq := s.([]string)
	switch op := u.(type) {
	case InsAt:
		pos := clamp(op.Pos, len(seq))
		next := sp.Apply(seq, op).([]string)
		return next, func(t State) State {
			ts := t.([]string)
			return append(ts[:pos], ts[pos+1:]...)
		}
	case DelAt:
		if op.Pos < 0 || op.Pos >= len(seq) {
			return seq, func(t State) State { return t }
		}
		removed := seq[op.Pos]
		pos := op.Pos
		next := sp.Apply(seq, op).([]string)
		return next, func(t State) State {
			ts := t.([]string)
			ts = append(ts, "")
			copy(ts[pos+1:], ts[pos:])
			ts[pos] = removed
			return ts
		}
	default:
		panic(fmt.Sprintf("spec: sequence does not recognize update %T", u))
	}
}

// ExplainState implements StateExplainer.
func (SequenceSpec) ExplainState(obs []Observation) (State, bool) {
	if len(obs) == 0 {
		return []string(nil), true
	}
	first, ok := obs[0].Out.(Lines)
	if !ok {
		return nil, false
	}
	sp := SequenceSpec{}
	for _, o := range obs[1:] {
		if !sp.EqualOutput(first, o.Out) {
			return nil, false
		}
	}
	return append([]string(nil), first...), true
}

// EncodeUpdate implements Codec. Wire format: tag byte, decimal
// position, NUL, value.
func (sp SequenceSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (SequenceSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	switch op := u.(type) {
	case InsAt:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, int64(op.Pos), 10)
		dst = append(dst, 0)
		return append(dst, op.V...), nil
	case DelAt:
		dst = append(dst, 'd')
		return strconv.AppendInt(dst, int64(op.Pos), 10), nil
	default:
		return nil, fmt.Errorf("spec: sequence does not recognize update %T", u)
	}
}

// DecodeUpdate implements Codec.
func (SequenceSpec) DecodeUpdate(b []byte) (Update, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty sequence update")
	}
	body := string(b[1:])
	switch b[0] {
	case 'i':
		posStr, v, ok := strings.Cut(body, "\x00")
		if !ok {
			return nil, fmt.Errorf("spec: malformed sequence insert")
		}
		var pos int
		if _, err := fmt.Sscanf(posStr, "%d", &pos); err != nil {
			return nil, fmt.Errorf("spec: bad insert position %q", posStr)
		}
		return InsAt{Pos: pos, V: v}, nil
	case 'd':
		var pos int
		if _, err := fmt.Sscanf(body, "%d", &pos); err != nil {
			return nil, fmt.Errorf("spec: bad delete position %q", body)
		}
		return DelAt{Pos: pos}, nil
	default:
		return nil, fmt.Errorf("spec: unknown sequence update tag %q", b[0])
	}
}
