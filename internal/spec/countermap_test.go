package spec

import (
	"math/rand"
	"testing"
)

func TestCounterMapSequential(t *testing.T) {
	adt := CounterMap()
	s := adt.Initial()
	s = adt.Apply(s, AddKey{K: "a", N: 3})
	s = adt.Apply(s, AddKey{K: "b", N: -2})
	s = adt.Apply(s, AddKey{K: "a", N: 1})
	if got := adt.Query(s, ReadCtr{K: "a"}); got != CtrVal(4) {
		t.Fatalf("R(a) = %v, want 4", got)
	}
	if got := adt.Query(s, ReadCtr{K: "b"}); got != CtrVal(-2) {
		t.Fatalf("R(b) = %v, want -2", got)
	}
	if got := adt.Query(s, ReadCtr{K: "zzz"}); got != CtrVal(0) {
		t.Fatalf("untouched counter reads %v, want 0", got)
	}
	all := adt.Query(s, ReadAllCtrs{}).(Elems)
	if all.String() != "{a=4, b=-2}" {
		t.Fatalf("R* = %v", all)
	}
	if !ValidSequential(adt, []Op{
		UpdateOp(AddKey{K: "a", N: 4}),
		QueryOp(ReadCtr{K: "a"}, CtrVal(4)),
		QueryOp(ReadCtr{K: "b"}, CtrVal(0)),
	}) {
		t.Fatal("valid sequential countermap word rejected")
	}
}

func TestCounterMapCodecRoundTrip(t *testing.T) {
	adt := CounterMap()
	for _, u := range []AddKey{
		{K: "a", N: 1}, {K: "", N: -7}, {K: "long-counter-name", N: 1 << 40},
	} {
		b, err := adt.EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := adt.DecodeUpdate(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != Update(u) {
			t.Fatalf("roundtrip %v -> %v", u, got)
		}
	}
	if _, err := adt.DecodeUpdate(nil); err == nil {
		t.Fatal("decoding empty payload must fail")
	}
}

func TestCounterMapUndo(t *testing.T) {
	adt := CounterMap()
	s := adt.Initial()
	s, undoA := adt.ApplyUndo(s, AddKey{K: "a", N: 5})
	s, undoB := adt.ApplyUndo(s, AddKey{K: "a", N: 2})
	s = undoB(s)
	if got := adt.Query(s, ReadCtr{K: "a"}); got != CtrVal(5) {
		t.Fatalf("after undo, R(a) = %v, want 5", got)
	}
	s = undoA(s)
	if key := adt.KeyState(s); key != "∅" {
		t.Fatalf("undoing the first touch must remove the counter, state %q", key)
	}
}

func TestCounterMapStateCodecRoundTrip(t *testing.T) {
	adt := CounterMap()
	s := adt.Initial()
	s = adt.Apply(s, AddKey{K: "x", N: -9})
	s = adt.Apply(s, AddKey{K: "y", N: 12})
	b, err := adt.EncodeState(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := adt.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if adt.KeyState(got) != adt.KeyState(s) {
		t.Fatalf("state roundtrip: %s vs %s", adt.KeyState(got), adt.KeyState(s))
	}
}

// TestDecodeStateBoundsHostileCount: the string-list decoder behind every
// built-in StateCodec refuses a count its bytes cannot back instead of
// allocating for it (found by core's FuzzSnapshot: a four-byte uvarint
// count made a snapshot's base decode reserve gigabytes).
func TestDecodeStateBoundsHostileCount(t *testing.T) {
	hostile := []byte{0xae, 0xae, 0xae, 0x30, 0xae, 0xae, 0xae, 0xae, 0x90, 0x30, 0x30}
	for _, sc := range []StateCodec{Set(), CounterMap(), Memory(""), Log(), Sequence(), Graph(), Queue(), Stack()} {
		if s, err := sc.DecodeState(hostile); err == nil {
			t.Fatalf("%T decoded a hostile count to %v", sc, s)
		}
	}
}

// TestPartitionableContracts checks the Partitionable independence and
// locality contracts on every partitionable built-in: updates to
// distinct keys commute, and merging the per-key restrictions of a
// random update word reproduces the unsharded state.
func TestPartitionableContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []string{"a", "b", "c", "d", "e"}
	gens := map[string]func() Update{
		"set": func() Update {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(2) == 0 {
				return Ins{V: k}
			}
			return Del{V: k}
		},
		"memory": func() Update {
			return WriteKey{K: keys[rng.Intn(len(keys))], V: keys[rng.Intn(len(keys))]}
		},
		"countermap": func() Update {
			return AddKey{K: keys[rng.Intn(len(keys))], N: int64(rng.Intn(5) - 2)}
		},
	}
	for name, gen := range gens {
		adt, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		part, ok := adt.(Partitionable)
		if !ok {
			t.Fatalf("%s must be Partitionable", name)
		}
		word := make([]Update, 40)
		for i := range word {
			word[i] = gen()
		}
		whole := Replay(adt, word)
		// Split the word by key, replay each slice independently, merge.
		byKey := map[string][]Update{}
		for _, u := range word {
			k := part.UpdateKey(u)
			byKey[k] = append(byKey[k], u)
		}
		merged := adt.Initial()
		for _, k := range keys {
			if us, ok := byKey[k]; ok {
				merged = part.MergeInto(merged, Replay(adt, us))
			}
		}
		if adt.KeyState(merged) != adt.KeyState(whole) {
			t.Fatalf("%s: per-key replay + merge %s differs from whole replay %s",
				name, adt.KeyState(merged), adt.KeyState(whole))
		}
	}
}

// TestQueryKeyRouting checks the QueryKey halves of the partitionable
// specs: keyed reads name their key, whole-state reads do not.
func TestQueryKeyRouting(t *testing.T) {
	if k, ok := (MemorySpec{}).QueryKey(ReadKey{K: "x"}); !ok || k != "x" {
		t.Fatalf("memory R(x) must route to key x, got (%q,%v)", k, ok)
	}
	if k, ok := (CounterMapSpec{}).QueryKey(ReadCtr{K: "y"}); !ok || k != "y" {
		t.Fatalf("countermap R(y) must route to key y, got (%q,%v)", k, ok)
	}
	if _, ok := (CounterMapSpec{}).QueryKey(ReadAllCtrs{}); ok {
		t.Fatal("countermap R* observes the whole state")
	}
	if _, ok := (SetSpec{}).QueryKey(Read{}); ok {
		t.Fatal("set R observes the whole state")
	}
}
