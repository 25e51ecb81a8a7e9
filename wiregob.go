package updatec

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"updatec/internal/spec"
)

// The client half of the wire protocol moves query inputs and outputs
// as gob: unlike updates — which have a compact hand-rolled codec
// (spec.Codec) because they are the replicated hot path — queries
// never transit the replica network, only the single client↔daemon
// hop, so a self-describing encoding of the spec's concrete types is
// the right trade. Every concrete update, query-input and query-output
// type of the built-in specifications is registered here; both ends
// link this package, so registration is symmetric by construction.

func init() {
	for _, v := range []any{
		// updates
		spec.Ins{}, spec.Del{}, spec.Add{}, spec.Write{}, spec.Append{},
		spec.Enq{}, spec.DeqFront{}, spec.Push{}, spec.PopTop{},
		spec.AddV{}, spec.RemV{}, spec.AddE{}, spec.RemE{},
		spec.InsAt{}, spec.DelAt{}, spec.AddKey{}, spec.WriteKey{},
		// query inputs
		spec.Read{}, spec.Has{}, spec.ReadLog{}, spec.ReadSeq{}, spec.ReadGraph{},
		spec.ReadKey{}, spec.ReadCtr{}, spec.ReadAllCtrs{},
		spec.Front{}, spec.Top{},
		// query outputs
		spec.Elems{}, spec.Lines{}, spec.GraphVal{},
		spec.CtrVal(0), spec.RegVal(""), spec.Bool(false),
	} {
		gob.Register(v)
	}
}

// gobEncode encodes one dynamically-typed spec value for the client
// wire.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("updatec: encoding %T for the wire: %w", v, err)
	}
	return buf.Bytes(), nil
}

// gobDecode decodes one dynamically-typed spec value from the client
// wire.
func gobDecode(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("updatec: decoding wire value: %w", err)
	}
	return v, nil
}
