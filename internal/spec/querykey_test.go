package spec

import "testing"

// TestQueryKeyerAllBuiltins: every built-in spec canonicalizes its
// query inputs — its own queries are cacheable, a foreign input is
// not, and distinct query types never share a cache key.
func TestQueryKeyerAllBuiltins(t *testing.T) {
	queries := map[string][]QueryInput{
		"set":        {Read{}, Has{V: "a"}, Has{V: "b"}, Has{V: ""}},
		"gset":       {Read{}, Has{V: "a"}},
		"register":   {Read{}},
		"counter":    {Read{}},
		"countermap": {ReadCtr{K: "a"}, ReadCtr{K: "b"}, ReadAllCtrs{}},
		"memory":     {ReadKey{K: "a"}, ReadKey{K: "b"}},
		"queue":      {Front{}},
		"stack":      {Top{}},
		"log":        {ReadLog{}},
		"sequence":   {ReadSeq{}},
		"graph":      {ReadGraph{}},
	}
	for _, name := range Names() {
		adt, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		keyer, ok := adt.(QueryKeyer)
		if !ok {
			t.Fatalf("%s does not implement QueryKeyer", name)
		}
		ins, ok := queries[name]
		if !ok {
			t.Fatalf("no query inputs listed for %s — extend the test", name)
		}
		seen := map[QueryCacheKey]QueryInput{}
		for _, in := range ins {
			key, ok := keyer.QueryInputKey(in)
			if !ok {
				t.Fatalf("%s: %v not cacheable", name, in)
			}
			if prev, dup := seen[key]; dup {
				t.Fatalf("%s: %v and %v share cache key %v", name, prev, in, key)
			}
			seen[key] = in
			again, _ := keyer.QueryInputKey(in)
			if again != key {
				t.Fatalf("%s: %v keyed %v then %v", name, in, key, again)
			}
		}
		if _, ok := keyer.QueryInputKey(struct{ bogus int }{1}); ok {
			t.Fatalf("%s: foreign query input reported cacheable", name)
		}
	}
}

// TestQueryCacheKeyNoCollisionAcrossKinds: countermap's keyed read of
// a pathological counter name must not collide with the whole-map
// read — the Kind byte, not the key string, separates them.
func TestQueryCacheKeyNoCollisionAcrossKinds(t *testing.T) {
	keyer := CounterMap()
	for _, name := range []string{"", "*", "all", "\x00"} {
		keyed, _ := keyer.QueryInputKey(ReadCtr{K: name})
		all, _ := keyer.QueryInputKey(ReadAllCtrs{})
		if keyed == all {
			t.Fatalf("ReadCtr{%q} collides with ReadAllCtrs: %v", name, keyed)
		}
	}
}

// TestUnmergeFromInvertsMergeInto: for every partitionable spec,
// unmerging a previously merged contribution restores the original
// state.
func TestUnmergeFromInvertsMergeInto(t *testing.T) {
	cases := []struct {
		adt  UQADT
		base []Update
		src  []Update
	}{
		{Set(), []Update{Ins{V: "a"}, Ins{V: "b"}}, []Update{Ins{V: "c"}, Ins{V: "d"}}},
		{Memory("0"), []Update{WriteKey{K: "x", V: "1"}}, []Update{WriteKey{K: "y", V: "2"}}},
		{CounterMap(), []Update{AddKey{K: "x", N: 3}}, []Update{AddKey{K: "y", N: 4}, AddKey{K: "z", N: -1}}},
	}
	for _, tc := range cases {
		part, ok := tc.adt.(Partitionable)
		if !ok {
			t.Fatalf("%s not partitionable", tc.adt.Name())
		}
		base := Replay(tc.adt, tc.base)
		want := tc.adt.KeyState(base)
		src := Replay(tc.adt, tc.src)
		merged := part.MergeInto(tc.adt.Clone(base), src)
		restored := part.UnmergeFrom(merged, src)
		if got := tc.adt.KeyState(restored); got != want {
			t.Fatalf("%s: unmerge(merge(base, src), src) = %s, want %s", tc.adt.Name(), got, want)
		}
	}
}
