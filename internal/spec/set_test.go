package spec

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// setCase is one set state under test beside the membership it must
// hold.
type setCase struct {
	st    State
	model map[string]bool
}

// TestSetReadMatchesMembership drives set states through every way the
// replica changes one — updates, ApplyUndo and its undo, Clone, the
// partition splices and the state codec — with R interleaved, and
// checks each R against a sort of the membership. Every answer R gave
// is checked again at the end: a published view must never change.
func TestSetReadMatchesMembership(t *testing.T) {
	sp := Set()
	type answer struct{ got, want Elems }
	var answers []answer
	read := func(step int, c *setCase) {
		t.Helper()
		got := sp.Query(c.st, Read{}).(Elems)
		want := slices.Sorted(maps.Keys(c.model))
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("step %d: R = %#v, want %v", step, got, want)
		}
		answers = append(answers, answer{got, slices.Clone(got)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 8 + rng.Intn(60)
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(keys)) }
		cases := []*setCase{{sp.Initial(), map[string]bool{}}}
		for step := 0; step < 600; step++ {
			c := cases[rng.Intn(len(cases))]
			switch r := rng.Intn(10); {
			case r < 3:
				v := key()
				c.st = sp.Apply(c.st, Ins{V: v})
				c.model[v] = true
			case r < 4:
				v := key()
				c.st = sp.Apply(c.st, Del{V: v})
				delete(c.model, v)
			case r < 5:
				// A late arrival: undo a few updates, maybe read the
				// state between, and redo them.
				var undos []Undo
				var redo []Update
				for i := rng.Intn(4); i >= 0; i-- {
					var u Update = Ins{V: key()}
					if rng.Intn(3) == 0 {
						u = Del{V: key()}
					}
					var un Undo
					c.st, un = sp.ApplyUndo(c.st, u)
					undos, redo = append(undos, un), append(redo, u)
				}
				for i := len(undos) - 1; i >= 0; i-- {
					c.st = undos[i](c.st)
				}
				if rng.Intn(2) == 0 {
					read(step, c)
				}
				for _, u := range redo {
					c.st = sp.Apply(c.st, u)
					switch op := u.(type) {
					case Ins:
						c.model[op.V] = true
					case Del:
						delete(c.model, op.V)
					}
				}
			case r < 6 && len(cases) < 6:
				cases = append(cases, &setCase{sp.Clone(c.st), maps.Clone(c.model)})
			case r < 7:
				// Split a range out, splice it back, maybe take it out
				// again and keep it as a state of its own.
				odd := rng.Intn(2)
				keep := func(k string) bool { return int(k[len(k)-1])%2 == odd }
				ext, n := sp.ExtractRange(c.st, keep)
				em := map[string]bool{}
				for k := range c.model {
					if keep(k) {
						em[k] = true
						delete(c.model, k)
					}
				}
				if n != len(em) {
					t.Fatalf("seed %d step %d: ExtractRange moved %d, want %d", seed, step, n, len(em))
				}
				read(step, c)
				if n == 0 {
					break
				}
				e := &setCase{ext, em}
				read(step, e)
				c.st = sp.MergeInto(c.st, ext)
				maps.Copy(c.model, em)
				read(step, c)
				if rng.Intn(2) == 0 {
					c.st = sp.UnmergeFrom(c.st, ext)
					for k := range em {
						delete(c.model, k)
					}
					if len(cases) < 6 {
						cases = append(cases, e)
					}
				}
			case r < 8:
				b, err := sp.EncodeState(c.st)
				if err != nil {
					t.Fatal(err)
				}
				if c.st, err = sp.DecodeState(b); err != nil {
					t.Fatal(err)
				}
			default:
				read(step, c)
			}
		}
		for _, c := range cases {
			read(-1, c)
		}
	}
	for i, a := range answers {
		if !slices.Equal(a.got, a.want) {
			t.Fatalf("answer %d changed after it was returned: %v, was %v", i, a.got, a.want)
		}
	}
}

// TestSetReadEmpty pins R on an empty set to a non-nil empty answer,
// before and after a read that saw elements.
func TestSetReadEmpty(t *testing.T) {
	sp := Set()
	s := sp.Initial()
	if got := sp.Query(s, Read{}).(Elems); got == nil || len(got) != 0 {
		t.Fatalf("R on a new set = %#v", got)
	}
	s = sp.Apply(s, Ins{V: "a"})
	sp.Query(s, Read{})
	s = sp.Apply(s, Del{V: "a"})
	if got := sp.Query(s, Read{}).(Elems); got == nil || len(got) != 0 {
		t.Fatalf("R after the last element left = %#v", got)
	}
}

// TestSetConcurrentReads runs readers beside each other on one state,
// as a replica's shared lock allows, with a writer between rounds.
// Under -race it checks that R's view upkeep is guarded.
func TestSetConcurrentReads(t *testing.T) {
	sp := Set()
	s := sp.Initial()
	var mu sync.RWMutex
	n := 0
	for round := 0; round < 50; round++ {
		mu.Lock()
		for i := 0; i < 20; i++ {
			s = sp.Apply(s, Ins{V: fmt.Sprintf("e%04d", n)})
			n++
		}
		s = sp.Apply(s, Del{V: fmt.Sprintf("e%04d", n/2)})
		mu.Unlock()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mu.RLock()
				defer mu.RUnlock()
				got := sp.Query(s, Read{}).(Elems)
				if !slices.IsSorted(got) || len(got) != n-round-1 {
					t.Errorf("round %d: R has %d elements, want %d sorted", round, len(got), n-round-1)
				}
				c := sp.Clone(s)
				if k := sp.KeyState(c); k != Elems(got).String() {
					t.Errorf("round %d: a clone's key differs from R", round)
				}
			}()
		}
		wg.Wait()
	}
}
