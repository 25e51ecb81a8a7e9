package spec

import (
	"encoding/binary"
	"fmt"
)

// QueryCodec is an optional extension of UQADT implemented by
// specifications whose query inputs and outputs can be serialized: it is
// what lets a client in another process ask a replica (updatec.Dial).
// The input travels to the replica and the output travels back. An
// output is decoded against the input that asked for it, because one
// input type may yield different output types in different objects —
// the set's R yields Elems, the counter's R a CtrVal — so the output
// bytes carry no type of their own.
//
// The Append methods append to dst, growing it as needed, so a
// connection encodes through one reused buffer. The decoders read bytes
// from the network: any input must give a value or an error, never a
// panic, and a decoder must not allocate more than the bytes it was
// given justify.
type QueryCodec interface {
	AppendQueryInput(dst []byte, in QueryInput) ([]byte, error)
	DecodeQueryInput(b []byte) (QueryInput, error)
	AppendQueryOutput(dst []byte, out QueryOutput) ([]byte, error)
	DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error)
}

// builtinQueries implements QueryCodec for the built-in query types; every
// built-in spec embeds it. An input is a tag byte, followed by the key for
// a keyed query. An output is a length-prefixed string list for Elems
// and Lines, two of them for a GraphVal (vertices, then the flattened
// edges), a zig-zag varint for a CtrVal, the raw bytes of a RegVal and one
// byte for a Bool.
//
// R is the one built-in input whose output type depends on the object, so
// the embedded DecodeQueryOutput refuses it, and the set, register and
// counter each decode their own R.
type builtinQueries struct{}

// The input tags.
const (
	tagRead byte = 1 + iota
	tagHas
	tagReadLog
	tagReadSeq
	tagReadGraph
	tagReadKey
	tagReadCtr
	tagReadAllCtrs
	tagFront
	tagTop
)

// AppendQueryInput implements QueryCodec.
func (builtinQueries) AppendQueryInput(dst []byte, in QueryInput) ([]byte, error) {
	switch q := in.(type) {
	case Read:
		return append(dst, tagRead), nil
	case Has:
		return append(append(dst, tagHas), q.V...), nil
	case ReadLog:
		return append(dst, tagReadLog), nil
	case ReadSeq:
		return append(dst, tagReadSeq), nil
	case ReadGraph:
		return append(dst, tagReadGraph), nil
	case ReadKey:
		return append(append(dst, tagReadKey), q.K...), nil
	case ReadCtr:
		return append(append(dst, tagReadCtr), q.K...), nil
	case ReadAllCtrs:
		return append(dst, tagReadAllCtrs), nil
	case Front:
		return append(dst, tagFront), nil
	case Top:
		return append(dst, tagTop), nil
	}
	return dst, fmt.Errorf("spec: no wire encoding for query input %T", in)
}

// DecodeQueryInput implements QueryCodec.
func (builtinQueries) DecodeQueryInput(b []byte) (QueryInput, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty query input")
	}
	switch key := b[1:]; b[0] {
	case tagHas:
		return Has{V: string(key)}, nil
	case tagReadKey:
		return ReadKey{K: string(key)}, nil
	case tagReadCtr:
		return ReadCtr{K: string(key)}, nil
	}
	if len(b) > 1 {
		return nil, fmt.Errorf("spec: %d stray bytes after query input tag %d", len(b)-1, b[0])
	}
	switch b[0] {
	case tagRead:
		return Read{}, nil
	case tagReadLog:
		return ReadLog{}, nil
	case tagReadSeq:
		return ReadSeq{}, nil
	case tagReadGraph:
		return ReadGraph{}, nil
	case tagReadAllCtrs:
		return ReadAllCtrs{}, nil
	case tagFront:
		return Front{}, nil
	case tagTop:
		return Top{}, nil
	}
	return nil, fmt.Errorf("spec: unknown query input tag %d", b[0])
}

// AppendQueryOutput implements QueryCodec.
func (builtinQueries) AppendQueryOutput(dst []byte, out QueryOutput) ([]byte, error) {
	switch v := out.(type) {
	case Elems:
		return appendStrings(dst, v), nil
	case Lines:
		return appendStrings(dst, v), nil
	case GraphVal:
		dst = appendStrings(dst, v.Vertices)
		dst = binary.AppendUvarint(dst, uint64(2*len(v.Edges)))
		for _, e := range v.Edges {
			for _, s := range e {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
		}
		return dst, nil
	case CtrVal:
		return binary.AppendVarint(dst, int64(v)), nil
	case RegVal:
		return append(dst, v...), nil
	case Bool:
		if v {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	}
	return dst, fmt.Errorf("spec: no wire encoding for query output %T", out)
}

// DecodeQueryOutput implements QueryCodec for every built-in input but R.
func (builtinQueries) DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error) {
	switch in.(type) {
	case Has:
		return decodeBool(b)
	case ReadLog, ReadSeq:
		ss, err := decodeStringList(b)
		if err != nil {
			return nil, err
		}
		return Lines(ss), nil
	case ReadGraph:
		return decodeGraphVal(b)
	case ReadKey, Front, Top:
		return decodeRegVal(b)
	case ReadCtr:
		return decodeCtrVal(b)
	case ReadAllCtrs:
		return decodeElems(b)
	}
	return nil, fmt.Errorf("spec: no wire decoding for the output of %T", in)
}

// DecodeQueryOutput implements QueryCodec: R yields Elems.
func (sp SetSpec) DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error) {
	if _, ok := in.(Read); ok {
		return decodeElems(b)
	}
	return sp.builtinQueries.DecodeQueryOutput(in, b)
}

// DecodeQueryOutput implements QueryCodec: R yields a RegVal.
func (sp RegisterSpec) DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error) {
	if _, ok := in.(Read); ok {
		return decodeRegVal(b)
	}
	return sp.builtinQueries.DecodeQueryOutput(in, b)
}

// DecodeQueryOutput implements QueryCodec: R yields a CtrVal.
func (sp CounterSpec) DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error) {
	if _, ok := in.(Read); ok {
		return decodeCtrVal(b)
	}
	return sp.builtinQueries.DecodeQueryOutput(in, b)
}

// decodeStringList reads a string list that fills b exactly.
func decodeStringList(b []byte) ([]string, error) {
	ss, n, err := decodeStrings(b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("spec: %d stray bytes after a string list", len(b)-n)
	}
	return ss, err
}

func decodeElems(b []byte) (QueryOutput, error) {
	ss, err := decodeStringList(b)
	if err != nil {
		return nil, err
	}
	return Elems(ss), nil
}

func decodeGraphVal(b []byte) (QueryOutput, error) {
	verts, n, err := decodeStrings(b)
	if err != nil {
		return nil, err
	}
	flat, err := decodeStringList(b[n:])
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("spec: odd graph edge list")
	}
	edges := make([][2]string, 0, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		edges = append(edges, [2]string{flat[i], flat[i+1]})
	}
	return GraphVal{Vertices: verts, Edges: edges}, nil
}

func decodeCtrVal(b []byte) (QueryOutput, error) {
	v, n := binary.Varint(b)
	if n <= 0 || n != len(b) {
		return nil, fmt.Errorf("spec: malformed counter value")
	}
	return CtrVal(v), nil
}

func decodeRegVal(b []byte) (QueryOutput, error) { return RegVal(b), nil }

func decodeBool(b []byte) (QueryOutput, error) {
	if len(b) != 1 || b[0] > 1 {
		return nil, fmt.Errorf("spec: malformed bool")
	}
	return Bool(b[0] == 1), nil
}
