package spec

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// StateCodec is implemented by specifications whose states can be
// serialized. It is required only for transferring a *compacted*
// replica snapshot (internal/core's state transfer): a replica whose
// log still contains every update can always be bootstrapped from the
// update log alone.
type StateCodec interface {
	EncodeState(s State) ([]byte, error)
	DecodeState(b []byte) (State, error)
}

// encodeStrings writes a length-prefixed string list.
func encodeStrings(ss []string) []byte { return appendStrings(nil, ss) }

// appendStrings appends a length-prefixed string list to dst.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// decodeStrings reads a list written by appendStrings and returns the
// number of bytes consumed. The strings share one copy of their bytes,
// so a list costs two allocations however long it is.
func decodeStrings(b []byte) ([]string, int, error) {
	count, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, 0, fmt.Errorf("spec: malformed string list")
	}
	// Every string costs at least its length byte, which bounds what a
	// hostile count can make this allocate.
	if count > uint64(len(b)-off) {
		return nil, 0, fmt.Errorf("spec: string list claims %d strings in %d bytes", count, len(b)-off)
	}
	end := off
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(b[end:])
		if n <= 0 || uint64(len(b)-end-n) < l {
			return nil, 0, fmt.Errorf("spec: truncated string list")
		}
		end += n + int(l)
	}
	all := string(b[off:end])
	out := make([]string, 0, count)
	for p := 0; p < len(all); {
		l, n := binary.Uvarint(b[off+p:])
		p += n
		out = append(out, all[p:p+int(l)])
		p += int(l)
	}
	return out, end, nil
}

// EncodeState implements StateCodec for the set.
func (SetSpec) EncodeState(s State) ([]byte, error) {
	return encodeStrings(s.(*setState).elems()), nil
}

// DecodeState implements StateCodec for the set.
func (SetSpec) DecodeState(b []byte) (State, error) {
	elems, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(elems))
	for _, v := range elems {
		m[v] = 0
	}
	return newSetState(m), nil
}

// EncodeState implements StateCodec for the register.
func (RegisterSpec) EncodeState(s State) ([]byte, error) {
	return []byte(s.(string)), nil
}

// DecodeState implements StateCodec for the register.
func (RegisterSpec) DecodeState(b []byte) (State, error) {
	return string(b), nil
}

// EncodeState implements StateCodec for the counter.
func (CounterSpec) EncodeState(s State) ([]byte, error) {
	return []byte(strconv.FormatInt(s.(int64), 10)), nil
}

// DecodeState implements StateCodec for the counter.
func (CounterSpec) DecodeState(b []byte) (State, error) {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("spec: bad counter state: %w", err)
	}
	return n, nil
}

// EncodeState implements StateCodec for the counter map: sorted
// key/value pairs, values rendered in decimal.
func (CounterMapSpec) EncodeState(s State) ([]byte, error) {
	m := s.(map[string]int64)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	flat := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		flat = append(flat, k, strconv.FormatInt(m[k], 10))
	}
	return encodeStrings(flat), nil
}

// DecodeState implements StateCodec for the counter map.
func (CounterMapSpec) DecodeState(b []byte) (State, error) {
	flat, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("spec: odd countermap state list")
	}
	m := make(map[string]int64, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		n, err := strconv.ParseInt(flat[i+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: bad countermap value: %w", err)
		}
		m[flat[i]] = n
	}
	return m, nil
}

// EncodeState implements StateCodec for the memory: sorted key/value
// pairs.
func (MemorySpec) EncodeState(s State) ([]byte, error) {
	m := s.(map[string]string)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	flat := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		flat = append(flat, k, m[k])
	}
	return encodeStrings(flat), nil
}

// DecodeState implements StateCodec for the memory.
func (MemorySpec) DecodeState(b []byte) (State, error) {
	flat, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("spec: odd memory state list")
	}
	m := make(map[string]string, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		m[flat[i]] = flat[i+1]
	}
	return m, nil
}

// EncodeState implements StateCodec for the log.
func (LogSpec) EncodeState(s State) ([]byte, error) {
	return encodeStrings(s.([]string)), nil
}

// DecodeState implements StateCodec for the log.
func (LogSpec) DecodeState(b []byte) (State, error) {
	lines, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	return lines, nil
}

// EncodeState implements StateCodec for the sequence.
func (SequenceSpec) EncodeState(s State) ([]byte, error) {
	return encodeStrings(s.([]string)), nil
}

// DecodeState implements StateCodec for the sequence.
func (SequenceSpec) DecodeState(b []byte) (State, error) {
	items, _, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	return items, nil
}

// EncodeState implements StateCodec for the graph: its ReadGraph output,
// encoded as a QueryCodec answer (vertex list, then flattened edge list).
func (sp GraphSpec) EncodeState(s State) ([]byte, error) {
	return sp.AppendQueryOutput(nil, s.(*graphState).value())
}

// DecodeState implements StateCodec for the graph.
func (sp GraphSpec) DecodeState(b []byte) (State, error) {
	out, err := decodeGraphVal(b)
	if err != nil {
		return nil, err
	}
	val, g := out.(GraphVal), sp.Initial().(*graphState)
	for _, v := range val.Vertices {
		g.vertices[v] = true
	}
	for _, e := range val.Edges {
		if !g.vertices[e[0]] || !g.vertices[e[1]] {
			return nil, fmt.Errorf("spec: dangling edge in graph state")
		}
		g.edges[e] = true
	}
	return g, nil
}
