package crdt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"

	"updatec/internal/spec"
)

// present renders the elements of a per-element map that keep selects
// as a read output.
func present[V any](m map[string]V, keep func(v string, x V) bool) spec.Elems {
	out := spec.Elems{}
	for _, v := range slices.Sorted(maps.Keys(m)) {
		if keep(v, m[v]) {
			out = append(out, v)
		}
	}
	return out
}

// equalOutputs compares two query outputs: reads by their elements,
// any other output by value.
func equalOutputs(a, b spec.QueryOutput) bool {
	ea, ok := a.(spec.Elems)
	eb, ok2 := b.(spec.Elems)
	if ok || ok2 {
		return ok && ok2 && slices.Equal(ea, eb)
	}
	return reflect.DeepEqual(a, b)
}

func unknown(name string, x any) string {
	return fmt.Sprintf("crdt: %s does not recognize %T", name, x)
}

// TwoPhaseSpec is the 2P-set (U-set) [18] over the set's own updates
// I(v) and D(v): a grow-only white list of insertions and black list of
// deletions. An element once deleted can never be re-inserted, and a
// deletion wins over any concurrent insertion. A state maps each
// element ever inserted or deleted to whether it is present.
type TwoPhaseSpec struct{}

// TwoPhaseSet returns the 2P-set spec.
func TwoPhaseSet() TwoPhaseSpec { return TwoPhaseSpec{} }

// Name implements UQADT.
func (TwoPhaseSpec) Name() string { return "2p-set" }

// Initial implements UQADT.
func (TwoPhaseSpec) Initial() spec.State { return map[string]bool{} }

// Apply implements UQADT: D(v) black-lists v for good; I(v) adds v
// unless it is black-listed.
func (sp TwoPhaseSpec) Apply(s spec.State, u spec.Update) spec.State {
	m := s.(map[string]bool)
	switch op := u.(type) {
	case spec.Ins:
		if _, seen := m[op.V]; !seen {
			m[op.V] = true
		}
	case spec.Del:
		m[op.V] = false
	default:
		panic(unknown(sp.Name(), u))
	}
	return m
}

// Clone implements UQADT.
func (TwoPhaseSpec) Clone(s spec.State) spec.State { return maps.Clone(s.(map[string]bool)) }

// Query implements UQADT: R reads the present elements.
func (sp TwoPhaseSpec) Query(s spec.State, in spec.QueryInput) spec.QueryOutput {
	if _, ok := in.(spec.Read); !ok {
		panic(unknown(sp.Name(), in))
	}
	return present(s.(map[string]bool), func(_ string, in bool) bool { return in })
}

// EqualOutput implements UQADT.
func (TwoPhaseSpec) EqualOutput(a, b spec.QueryOutput) bool { return equalOutputs(a, b) }

// KeyState implements UQADT: the present elements, then the
// black-listed ones.
func (sp TwoPhaseSpec) KeyState(s spec.State) string {
	out := present(s.(map[string]bool), func(_ string, in bool) bool { return !in })
	return fmt.Sprint(sp.Query(s, spec.Read{}), " -", out)
}

// CommutativeUpdates implements Commutative.
func (TwoPhaseSpec) CommutativeUpdates() bool { return true }

// EncodeUpdate implements Codec with the set's wire format.
func (TwoPhaseSpec) EncodeUpdate(u spec.Update) ([]byte, error) { return spec.Set().EncodeUpdate(u) }

// DecodeUpdate implements Codec.
func (TwoPhaseSpec) DecodeUpdate(b []byte) (spec.Update, error) { return spec.Set().DecodeUpdate(b) }

// CounterSetSpec is the state of the PN-set [9] and of the C-set of
// Aslan et al. [19]: a signed counter per element, the counter map's
// AddKey updates, and the set's read R returning the elements whose
// count is positive. The two sets differ only in the deltas their
// issuers choose (IssuePN, IssueC), so they share this spec.
type CounterSetSpec struct{ spec.CounterMapSpec }

// CounterSet returns the PN-set and C-set spec.
func CounterSet() CounterSetSpec { return CounterSetSpec{} }

// Name implements UQADT.
func (CounterSetSpec) Name() string { return "counter-set" }

// Query implements UQADT: R reads the elements of positive count; the
// counter map's reads see the counts themselves.
func (c CounterSetSpec) Query(s spec.State, in spec.QueryInput) spec.QueryOutput {
	if _, ok := in.(spec.Read); ok {
		return present(s.(map[string]int64), func(_ string, n int64) bool { return n > 0 })
	}
	return c.CounterMapSpec.Query(s, in)
}

// DecodeQueryOutput implements QueryCodec: R yields the set's Elems.
func (c CounterSetSpec) DecodeQueryOutput(in spec.QueryInput, b []byte) (spec.QueryOutput, error) {
	if _, ok := in.(spec.Read); ok {
		return spec.Set().DecodeQueryOutput(in, b)
	}
	return c.CounterMapSpec.DecodeQueryOutput(in, b)
}

// Tag identifies one OR-set insertion: its issuer and the issuer's
// insertion sequence number, "proc.seq".
type Tag struct {
	Proc int
	Seq  uint64
}

// OR is an OR-set update: the insertion of V under one fresh tag, or,
// when Del is set, the deletion of V that black-lists the tags of V its
// issuer observed and no other.
type OR struct {
	V    string
	Del  bool
	Tags []Tag
}

// Observed is the OR-set query for the live tags of V, sorted: those a
// deletion of V issued now black-lists.
type Observed struct{ V string }

// NextTag is the OR-set query for a fresh tag of process Proc: one past
// the highest sequence number of Proc's tags folded so far. An issuer's
// own insertions are always folded, so the tag is unused.
type NextTag struct{ Proc int }

// ORSetSpec is the observed-remove set [9], [20], whose concurrent
// specification is the Insert-wins set of Definition 10. An element is
// present while one of its insertion tags is not black-listed, so an
// insertion survives every deletion that did not observe it.
type ORSetSpec struct{}

// ORSet returns the OR-set spec.
func ORSet() ORSetSpec { return ORSetSpec{} }

// orSet is an OR-set state: per element, every tag folded, live (true)
// or black-listed (false). seq is derived from the tags: the highest
// sequence number per process.
type orSet struct {
	tags map[string]map[Tag]bool
	seq  map[int]uint64
}

// Name implements UQADT.
func (ORSetSpec) Name() string { return "or-set" }

// Initial implements UQADT.
func (ORSetSpec) Initial() spec.State {
	return &orSet{tags: map[string]map[Tag]bool{}, seq: map[int]uint64{}}
}

// Apply implements UQADT: a deletion black-lists its tags; an insertion
// adds its tag unless a deletion already black-listed it.
func (sp ORSetSpec) Apply(s spec.State, u spec.Update) spec.State {
	op, ok := u.(OR)
	if !ok {
		panic(unknown(sp.Name(), u))
	}
	st := s.(*orSet)
	for _, t := range op.Tags {
		st.seq[t.Proc] = max(st.seq[t.Proc], t.Seq)
		if st.tags[op.V] == nil {
			st.tags[op.V] = map[Tag]bool{}
		}
		if _, seen := st.tags[op.V][t]; op.Del || !seen {
			st.tags[op.V][t] = !op.Del
		}
	}
	return st
}

// Clone implements UQADT.
func (ORSetSpec) Clone(s spec.State) spec.State {
	st := s.(*orSet)
	tags := make(map[string]map[Tag]bool, len(st.tags))
	for v, m := range st.tags {
		tags[v] = maps.Clone(m)
	}
	return &orSet{tags: tags, seq: maps.Clone(st.seq)}
}

// Query implements UQADT: R reads the elements with a live tag;
// Observed and NextTag serve the issuer.
func (sp ORSetSpec) Query(s spec.State, in spec.QueryInput) spec.QueryOutput {
	st := s.(*orSet)
	switch q := in.(type) {
	case spec.Read:
		return present(st.tags, func(_ string, m map[Tag]bool) bool { return len(tagsOf(m, true)) > 0 })
	case Observed:
		return tagsOf(st.tags[q.V], true)
	case NextTag:
		return Tag{Proc: q.Proc, Seq: st.seq[q.Proc] + 1}
	default:
		panic(unknown(sp.Name(), in))
	}
}

// EqualOutput implements UQADT.
func (ORSetSpec) EqualOutput(a, b spec.QueryOutput) bool { return equalOutputs(a, b) }

// KeyState implements UQADT: per element, its live then its
// black-listed tags.
func (ORSetSpec) KeyState(s spec.State) string {
	st := s.(*orSet)
	var b strings.Builder
	for _, v := range slices.Sorted(maps.Keys(st.tags)) {
		fmt.Fprintf(&b, "%s=%v-%v ", v, tagsOf(st.tags[v], true), tagsOf(st.tags[v], false))
	}
	return b.String()
}

// CommutativeUpdates implements Commutative.
func (ORSetSpec) CommutativeUpdates() bool { return true }

// EncodeUpdate implements Codec. Wire format: 'I' or 'D', uvarint tag
// count, each tag as uvarint proc and uvarint seq, then the element.
func (sp ORSetSpec) EncodeUpdate(u spec.Update) ([]byte, error) {
	op, ok := u.(OR)
	if !ok {
		return nil, errors.New(unknown(sp.Name(), u))
	}
	b := binary.AppendUvarint([]byte{kindByte(op.Del)}, uint64(len(op.Tags)))
	for _, t := range op.Tags {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(t.Proc)), t.Seq)
	}
	return append(b, op.V...), nil
}

// DecodeUpdate implements Codec.
func (ORSetSpec) DecodeUpdate(b []byte) (spec.Update, error) {
	r, del := newReader(b)
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		n = 0
	}
	tags := make([]Tag, n)
	for i := range tags {
		tags[i] = Tag{Proc: int(r.uvarint()), Seq: r.uvarint()}
	}
	if r.err != nil {
		return nil, r.err
	}
	return OR{V: string(r.b), Del: del, Tags: tags}, nil
}

// tagsOf returns the tags of m that are live, or black-listed, sorted.
func tagsOf(m map[Tag]bool, live bool) []Tag {
	var out []Tag
	for t, l := range m {
		if l == live {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b Tag) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// LWW is a last-writer-wins set update: I(V), or D(V) when Del is set,
// stamped (Clock, Proc). Stamps order lexicographically.
type LWW struct {
	V     string
	Del   bool
	Clock uint64
	Proc  int
}

// MaxClock is the LWW-set query for the highest clock folded so far, a
// spec.CtrVal; an issuer stamps its next update one past it.
type MaxClock struct{}

// LWWSetSpec is the last-writer-wins element set [9]: each element
// keeps the stamps of its latest insertion and deletion, and is present
// when the insertion is the later. Stamps are Lamport clocks with the
// process id as tie-break, so conflicts resolve by one arbitrary but
// common total order.
//
// It is not the set spec folded in the replica's stamp order: the
// replica's clock also ticks on queries, so its stamps order updates
// differently from the clocks an LWW issuer reads off its folded state.
type LWWSetSpec struct{}

// LWWSet returns the LWW-set spec.
func LWWSet() LWWSetSpec { return LWWSetSpec{} }

// stamp is an LWW timestamp.
type stamp struct {
	clock uint64
	proc  int
}

func (a stamp) less(b stamp) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.proc < b.proc)
}

// lwwSet is an LWW-set state: the latest stamp per element, of its
// insertions and of its deletions.
type lwwSet struct{ add, rem map[string]stamp }

// Name implements UQADT.
func (LWWSetSpec) Name() string { return "lww-set" }

// Initial implements UQADT.
func (LWWSetSpec) Initial() spec.State {
	return &lwwSet{add: map[string]stamp{}, rem: map[string]stamp{}}
}

// Apply implements UQADT: the update's stamp replaces an earlier one of
// its element and kind.
func (sp LWWSetSpec) Apply(s spec.State, u spec.Update) spec.State {
	op, ok := u.(LWW)
	if !ok {
		panic(unknown(sp.Name(), u))
	}
	st := s.(*lwwSet)
	m, ts := st.add, stamp{op.Clock, op.Proc}
	if op.Del {
		m = st.rem
	}
	if cur, ok := m[op.V]; !ok || cur.less(ts) {
		m[op.V] = ts
	}
	return st
}

// Clone implements UQADT.
func (LWWSetSpec) Clone(s spec.State) spec.State {
	st := s.(*lwwSet)
	return &lwwSet{add: maps.Clone(st.add), rem: maps.Clone(st.rem)}
}

// Query implements UQADT: R reads the elements whose insertion is later
// than their deletion; MaxClock the highest folded clock.
func (sp LWWSetSpec) Query(s spec.State, in spec.QueryInput) spec.QueryOutput {
	st := s.(*lwwSet)
	switch in.(type) {
	case spec.Read:
		return present(st.add, func(v string, add stamp) bool {
			rem, removed := st.rem[v]
			return !removed || rem.less(add)
		})
	case MaxClock:
		var c uint64
		for _, ts := range st.add {
			c = max(c, ts.clock)
		}
		for _, ts := range st.rem {
			c = max(c, ts.clock)
		}
		return spec.CtrVal(c)
	default:
		panic(unknown(sp.Name(), in))
	}
}

// EqualOutput implements UQADT.
func (LWWSetSpec) EqualOutput(a, b spec.QueryOutput) bool { return equalOutputs(a, b) }

// KeyState implements UQADT: the insertion stamps, then the deletion
// stamps, per element.
func (LWWSetSpec) KeyState(s spec.State) string {
	st := s.(*lwwSet)
	var b strings.Builder
	for _, m := range []map[string]stamp{st.add, st.rem} {
		for _, v := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(&b, "%s@%d.%d ", v, m[v].clock, m[v].proc)
		}
		b.WriteString("-")
	}
	return b.String()
}

// CommutativeUpdates implements Commutative.
func (LWWSetSpec) CommutativeUpdates() bool { return true }

// EncodeUpdate implements Codec. Wire format: 'I' or 'D', uvarint
// clock, uvarint proc, then the element.
func (sp LWWSetSpec) EncodeUpdate(u spec.Update) ([]byte, error) {
	op, ok := u.(LWW)
	if !ok {
		return nil, errors.New(unknown(sp.Name(), u))
	}
	b := binary.AppendUvarint(binary.AppendUvarint([]byte{kindByte(op.Del)}, op.Clock), uint64(op.Proc))
	return append(b, op.V...), nil
}

// DecodeUpdate implements Codec.
func (LWWSetSpec) DecodeUpdate(b []byte) (spec.Update, error) {
	r, del := newReader(b)
	clock, proc := r.uvarint(), r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	return LWW{V: string(r.b), Del: del, Clock: clock, Proc: int(proc)}, nil
}

// kindByte is the leading byte of an update: 'D' for a deletion, 'I'
// for an insertion.
func kindByte(del bool) byte {
	if del {
		return 'D'
	}
	return 'I'
}

// reader decodes an update after its kind byte, keeping the first
// error.
type reader struct {
	b   []byte
	err error
}

// newReader reads the kind byte of b, reporting a deletion, and returns
// a reader over the rest.
func newReader(b []byte) (*reader, bool) {
	r := &reader{}
	if len(b) == 0 || (b[0] != 'I' && b[0] != 'D') {
		r.fail()
		return r, false
	}
	r.b = b[1:]
	return r, b[0] == 'D'
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("crdt: malformed update")
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return x
}
