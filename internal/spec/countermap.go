package spec

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// AddKey is the counter-map update: add N (possibly negative) to the
// counter named K.
type AddKey struct {
	K string
	N int64
}

// String renders the update, e.g. "Inc(views,3)" or "Dec(stock,1)".
func (a AddKey) String() string {
	if a.N < 0 {
		return fmt.Sprintf("Dec(%s,%d)", a.K, -a.N)
	}
	return fmt.Sprintf("Inc(%s,%d)", a.K, a.N)
}

// ReadCtr is the counter-map query read(k): the value of counter k
// (zero if never touched), returned as a CtrVal.
type ReadCtr struct{ K string }

// String renders the query input, e.g. "R(views)".
func (r ReadCtr) String() string { return fmt.Sprintf("R(%s)", r.K) }

// ReadAllCtrs is the counter-map query that observes every counter; it
// returns an Elems of sorted "k=v" strings (zero-valued counters that
// were touched are included).
type ReadAllCtrs struct{}

// String renders the query input "R*".
func (ReadAllCtrs) String() string { return "R*" }

// CounterMapSpec is a map of named integer counters: updates add to one
// counter, queries read one counter or all of them. States are
// map[string]int64 holding only counters that were touched.
//
// All updates commute (additions to the same counter commute, and
// additions to different counters are independent), so the type is a
// pure CRDT; it is also Partitionable — each update and each keyed read
// addresses exactly one counter — which makes it the canonical workload
// for the key-sharded construction (core.ShardedReplica) and its
// benchmarks.
type CounterMapSpec struct{ builtinQueries }

// CounterMap returns the counter-map UQ-ADT.
func CounterMap() CounterMapSpec { return CounterMapSpec{} }

// Name implements UQADT.
func (CounterMapSpec) Name() string { return "countermap" }

// Initial implements UQADT: no counter touched.
func (CounterMapSpec) Initial() State { return map[string]int64{} }

// Apply implements UQADT: T(s, Inc(k,n)) adds n to counter k.
func (CounterMapSpec) Apply(s State, u Update) State {
	a, ok := u.(AddKey)
	if !ok {
		panic(fmt.Sprintf("spec: countermap does not recognize update %T", u))
	}
	m := s.(map[string]int64)
	m[a.K] += a.N
	return m
}

// Clone implements UQADT.
func (CounterMapSpec) Clone(s State) State {
	m := s.(map[string]int64)
	c := make(map[string]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Query implements UQADT.
func (CounterMapSpec) Query(s State, in QueryInput) QueryOutput {
	m := s.(map[string]int64)
	switch q := in.(type) {
	case ReadCtr:
		return CtrVal(m[q.K])
	case ReadAllCtrs:
		return ctrElems(m)
	default:
		panic(fmt.Sprintf("spec: countermap does not recognize query %T", in))
	}
}

// EqualOutput implements UQADT.
func (CounterMapSpec) EqualOutput(a, b QueryOutput) bool {
	switch va := a.(type) {
	case CtrVal:
		vb, ok := b.(CtrVal)
		return ok && va == vb
	case Elems:
		vb, ok := b.(Elems)
		return ok && equalElems(va, vb)
	default:
		return false
	}
}

// KeyState implements UQADT.
func (CounterMapSpec) KeyState(s State) string {
	return ctrElems(s.(map[string]int64)).String()
}

// ApplyUndo implements Undoable: the inverse of adding n is adding -n,
// removing the counter again when it had never been touched.
func (CounterMapSpec) ApplyUndo(s State, u Update) (State, Undo) {
	a, ok := u.(AddKey)
	if !ok {
		panic(fmt.Sprintf("spec: countermap does not recognize update %T", u))
	}
	m := s.(map[string]int64)
	_, had := m[a.K]
	m[a.K] += a.N
	return m, func(t State) State {
		tm := t.(map[string]int64)
		if !had {
			delete(tm, a.K)
			return t
		}
		tm[a.K] -= a.N
		return t
	}
}

// CommutativeUpdates implements Commutative.
func (CounterMapSpec) CommutativeUpdates() bool { return true }

// UpdateKey implements Partitionable: an addition addresses its
// counter.
func (CounterMapSpec) UpdateKey(u Update) string {
	a, ok := u.(AddKey)
	if !ok {
		panic(fmt.Sprintf("spec: countermap does not recognize update %T", u))
	}
	return a.K
}

// QueryKey implements Partitionable: a keyed read addresses its
// counter; ReadAllCtrs observes the whole state.
func (CounterMapSpec) QueryKey(in QueryInput) (string, bool) {
	r, ok := in.(ReadCtr)
	if !ok {
		return "", false
	}
	return r.K, true
}

// MergeInto implements Partitionable: union of disjoint counter maps.
func (CounterMapSpec) MergeInto(dst, src State) State {
	d := dst.(map[string]int64)
	for k, v := range src.(map[string]int64) {
		d[k] = v
	}
	return d
}

// UnmergeFrom implements Partitionable: remove src's counters.
func (CounterMapSpec) UnmergeFrom(dst, src State) State {
	d := dst.(map[string]int64)
	for k := range src.(map[string]int64) {
		delete(d, k)
	}
	return d
}

// ExtractRange implements Partitionable: move the selected counters
// into a fresh counter map.
func (CounterMapSpec) ExtractRange(s State, keep func(key string) bool) (State, int) {
	out, n := extractMap(s.(map[string]int64), keep)
	if n == 0 {
		return nil, 0
	}
	return out, n
}

// EncodeUpdate implements Codec. Wire format: uvarint key length, key
// bytes, zig-zag varint delta.
func (sp CounterMapSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (CounterMapSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	a, ok := u.(AddKey)
	if !ok {
		return nil, fmt.Errorf("spec: countermap does not recognize update %T", u)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(a.K)))
	dst = append(dst, buf[:n]...)
	dst = append(dst, a.K...)
	n = binary.PutVarint(buf[:], a.N)
	return append(dst, buf[:n]...), nil
}

// DecodeUpdate implements Codec.
func (CounterMapSpec) DecodeUpdate(b []byte) (Update, error) {
	klen, read := binary.Uvarint(b)
	if read <= 0 || uint64(len(b)-read) < klen {
		return nil, fmt.Errorf("spec: malformed countermap update")
	}
	rest := b[read:]
	n, read := binary.Varint(rest[klen:])
	if read <= 0 {
		return nil, fmt.Errorf("spec: malformed countermap delta")
	}
	return AddKey{K: string(rest[:klen]), N: n}, nil
}

// ctrElems renders a counter-map state canonically as sorted "k=v"
// entries.
func ctrElems(m map[string]int64) Elems {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+"="+strconv.FormatInt(v, 10))
	}
	sort.Strings(out)
	return out
}
