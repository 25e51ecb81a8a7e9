package spec

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// queryCodecCases pairs every built-in query input with a spec that
// answers it, and an output it can answer.
var queryCodecCases = []struct {
	qc  QueryCodec
	in  QueryInput
	out QueryOutput
}{
	{Set(), Read{}, Elems{"a", "b"}},
	{Set(), Has{V: "a"}, Bool(true)},
	{Register("v0"), Read{}, RegVal("x")},
	{Counter(), Read{}, CtrVal(-5)},
	{Log(), ReadLog{}, Lines{"one", "", "three"}},
	{Sequence(), ReadSeq{}, Lines{}},
	{Graph(), ReadGraph{}, GraphVal{Vertices: []string{"a", "b"}, Edges: [][2]string{{"a", "b"}}}},
	{Memory("v0"), ReadKey{K: "r"}, RegVal("")},
	{CounterMap(), ReadCtr{K: "k"}, CtrVal(1 << 40)},
	{CounterMap(), ReadAllCtrs{}, Elems{"k=1"}},
	{Queue(), Front{}, Bottom},
	{Stack(), Top{}, RegVal("top")},
}

// TestQueryCodecRoundTrip: every built-in input and an output of it
// survive their codec, and an empty list output decodes to an empty
// slice, as in-process queries return it.
func TestQueryCodecRoundTrip(t *testing.T) {
	for _, c := range queryCodecCases {
		b, err := c.qc.AppendQueryInput(nil, c.in)
		if err != nil {
			t.Fatalf("%T: %v", c.in, err)
		}
		in, err := c.qc.DecodeQueryInput(b)
		if err != nil || in != c.in {
			t.Fatalf("input %#v came back as %#v (%v)", c.in, in, err)
		}
		b, err = c.qc.AppendQueryOutput(nil, c.out)
		if err != nil {
			t.Fatalf("%T: %v", c.out, err)
		}
		out, err := c.qc.DecodeQueryOutput(c.in, b)
		if err != nil || !reflect.DeepEqual(out, c.out) {
			t.Fatalf("output %#v of %v came back as %#v (%v)", c.out, c.in, out, err)
		}
	}
	if _, err := Set().AppendQueryInput(nil, Ins{V: "a"}); err == nil {
		t.Fatal("an update encoded as a query input")
	}
	if _, err := Log().DecodeQueryOutput(Read{}, []byte{0}); err == nil {
		t.Fatal("the log decoded an output for R, which it does not answer")
	}
}

// FuzzQueryOutput decodes arbitrary reply bytes against every built-in
// input, as a Dial client decodes what the network hands it, and the same
// bytes as a query input, as a daemon does. Each decode gives a value or
// an error, never a panic; a decoded list holds no more elements than
// the bytes could encode (a count larger than the bytes that remain is
// refused before anything is allocated); and a decoded value re-encodes
// to bytes that decode to the same value.
func FuzzQueryOutput(f *testing.F) {
	for _, c := range queryCodecCases {
		b, err := c.qc.AppendQueryOutput(nil, c.out)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		if b, err = c.qc.AppendQueryInput(nil, c.in); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<60))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range queryCodecCases {
			out, err := c.qc.DecodeQueryOutput(c.in, data)
			if err != nil {
				continue
			}
			var lists [][]string
			switch v := out.(type) {
			case Elems:
				lists = append(lists, v)
			case Lines:
				lists = append(lists, v)
			case GraphVal:
				lists = append(lists, v.Vertices)
				if 2*cap(v.Edges) > len(data) {
					t.Fatalf("%d bytes decoded to %d edges of capacity", len(data), cap(v.Edges))
				}
			}
			for _, l := range lists {
				if cap(l) > len(data) {
					t.Fatalf("%d bytes decoded to a list of capacity %d", len(data), cap(l))
				}
			}
			b, err := c.qc.AppendQueryOutput(nil, out)
			if err != nil {
				t.Fatalf("decoded %#v does not re-encode: %v", out, err)
			}
			if again, err := c.qc.DecodeQueryOutput(c.in, b); err != nil || !reflect.DeepEqual(again, out) {
				t.Fatalf("%#v re-encoded decodes as %#v (%v)", out, again, err)
			}
		}
		in, err := Set().DecodeQueryInput(data)
		if err != nil {
			return
		}
		b, err := Set().AppendQueryInput(nil, in)
		if err != nil || !reflect.DeepEqual(b, data) {
			t.Fatalf("input %#v from %x re-encodes as %x (%v)", in, data, b, err)
		}
	})
}
