// Package spectest is the public conformance harness for UQ-ADT
// specifications: Run drives an Object descriptor — built-in or
// user-Defined — through the laws every layer of the library assumes,
// probing each optional capability and checking only the ones the spec
// implements. A custom object that passes spectest.Run gets the same
// guarantees from the construction as the nine built-ins, which are
// themselves run through this harness.
package spectest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"updatec"
)

// Run checks obj against the UQ-ADT laws and every optional capability
// law its spec implements:
//
//   - Apply determinism and Clone/Initial independence (always)
//   - query outputs share nothing mutable with the state they read
//   - Codec round-trip, and AppendCodec agreement with Codec
//   - Undoable: apply-then-undo restores the pre-state
//   - Partitionable: per-key routing commutes with folding, MergeInto /
//     UnmergeFrom / ExtractRange are mutual inverses
//   - QueryKeyer determinism and StateCodec round-trip
//   - QueryCodec round-trip of the ω query's input and outputs
//   - Masking: a later update masks an earlier one of its mask key, and
//     updates of different mask keys commute
//   - a 3-replica convergence run through the real construction
//
// The object must carry a workload generator (updatec.WithWorkload) —
// it is how the harness drives a spec it did not write.
func Run[H any](t *testing.T, obj updatec.Object[H]) {
	t.Helper()
	if _, ok := obj.RandomUpdate(rand.New(rand.NewSource(0)), "probe"); !ok {
		t.Fatalf("spectest: %s has no workload generator; Define it with updatec.WithWorkload", obj.Name())
	}
	adt := obj.Spec()

	t.Run("apply-determinism", func(t *testing.T) {
		us := sample(obj, 1, 40)
		s1, s2 := adt.Initial(), adt.Initial()
		for i, u := range us {
			s1, s2 = adt.Apply(s1, u), adt.Apply(s2, u)
			if k1, k2 := adt.KeyState(s1), adt.KeyState(s2); k1 != k2 {
				t.Fatalf("Apply is not deterministic after %d updates: %q vs %q", i+1, k1, k2)
			}
		}
	})

	t.Run("clone-independence", func(t *testing.T) {
		us := sample(obj, 2, 20)
		s := fold(obj, us[:10])
		before := adt.KeyState(s)
		c := adt.Clone(s)
		for _, u := range us[10:] {
			c = adt.Apply(c, u)
		}
		if got := adt.KeyState(s); got != before {
			t.Fatalf("mutating a Clone changed the original: %q -> %q", before, got)
		}
		// Initial states must not alias each other either.
		a, b := adt.Initial(), adt.Initial()
		empty := adt.KeyState(b)
		for _, u := range us[:10] {
			a = adt.Apply(a, u)
		}
		if got := adt.KeyState(b); got != empty {
			t.Fatalf("mutating one Initial() state changed another: %q -> %q", empty, got)
		}
	})

	if in, ok := obj.Omega(); ok {
		t.Run("query-output-independence", func(t *testing.T) {
			// The default engine keeps one state between reads and folds
			// arrivals into it in place, while outputs it returned sit
			// in caches and with callers: they must not move with it.
			us := sample(obj, 10, 30)
			s := fold(obj, us[:15])
			out := adt.Query(s, in)
			before := fmt.Sprint(out)
			for _, u := range us[15:] {
				s = adt.Apply(s, u)
			}
			if got := fmt.Sprint(out); got != before {
				t.Fatalf("output of %v changed when its state was updated: %s -> %s", in, before, got)
			}
		})
	}

	t.Run("codec-roundtrip", func(t *testing.T) {
		codec := obj.Codec()
		if codec == nil {
			t.Fatalf("%s carries no codec", obj.Name())
		}
		s := adt.Initial()
		for i, u := range sample(obj, 3, 30) {
			b, err := codec.EncodeUpdate(u)
			if err != nil {
				t.Fatalf("EncodeUpdate(%v): %v", u, err)
			}
			dec, err := codec.DecodeUpdate(b)
			if err != nil {
				t.Fatalf("DecodeUpdate of %v's encoding: %v", u, err)
			}
			// The law is effect equality, not representation equality:
			// the decoded update must transition every reachable state
			// exactly like the original.
			want := adt.KeyState(adt.Apply(adt.Clone(s), u))
			got := adt.KeyState(adt.Apply(adt.Clone(s), dec))
			if want != got {
				t.Fatalf("update %d: decoded update diverges from original: %q vs %q", i, got, want)
			}
			s = adt.Apply(s, u)
		}
	})

	if ac, ok := obj.Codec().(updatec.AppendCodec); ok {
		t.Run("append-codec", func(t *testing.T) {
			prefix := []byte("prefix-")
			for _, u := range sample(obj, 4, 20) {
				plain, err := obj.Codec().EncodeUpdate(u)
				if err != nil {
					t.Fatalf("EncodeUpdate(%v): %v", u, err)
				}
				appended, err := ac.AppendUpdate(append([]byte(nil), prefix...), u)
				if err != nil {
					t.Fatalf("AppendUpdate(%v): %v", u, err)
				}
				if !bytes.HasPrefix(appended, prefix) || !bytes.Equal(appended[len(prefix):], plain) {
					t.Fatalf("AppendUpdate disagrees with EncodeUpdate for %v", u)
				}
			}
		})
	}

	if und, ok := adt.(updatec.Undoable); ok {
		t.Run("undo", func(t *testing.T) {
			s := adt.Initial()
			for i, u := range sample(obj, 5, 30) {
				before := adt.KeyState(s)
				s2, undo := und.ApplyUndo(s, u)
				after := adt.KeyState(s2)
				s3 := undo(s2)
				if got := adt.KeyState(s3); got != before {
					t.Fatalf("update %d: undo did not restore the pre-state: %q vs %q", i, got, before)
				}
				s = adt.Apply(s3, u)
				if got := adt.KeyState(s); got != after {
					t.Fatalf("update %d: redo after undo diverged: %q vs %q", i, got, after)
				}
			}
		})
	}

	if part, ok := adt.(updatec.Partitionable); ok {
		t.Run("partitionable", func(t *testing.T) {
			// Route a keyed workload into two buckets exactly like the
			// shard router: by UpdateKey.
			us := sampleKeyed(obj, 6, 40, []string{"pa", "pb", "pc", "pd"})
			bucket := func(u updatec.Update) int {
				k := part.UpdateKey(u)
				if k2 := part.UpdateKey(u); k2 != k {
					t.Fatalf("UpdateKey is not deterministic for %v: %q vs %q", u, k, k2)
				}
				return len(k) % 2 // any deterministic split works
			}
			whole := adt.Initial()
			parts := [2]updatec.State{adt.Initial(), adt.Initial()}
			keys := [2]map[string]bool{{}, {}}
			for _, u := range us {
				b := bucket(u)
				whole = adt.Apply(whole, u)
				parts[b] = adt.Apply(parts[b], u)
				keys[b][part.UpdateKey(u)] = true
			}
			wantWhole := adt.KeyState(whole)
			keyA := adt.KeyState(parts[0])

			// Folding per bucket then merging equals folding everything.
			merged := part.MergeInto(adt.Clone(parts[0]), parts[1])
			if got := adt.KeyState(merged); got != wantWhole {
				t.Fatalf("MergeInto of per-key folds diverges from the whole fold: %q vs %q", got, wantWhole)
			}
			// UnmergeFrom inverts MergeInto.
			back := part.UnmergeFrom(merged, parts[1])
			if got := adt.KeyState(back); got != keyA {
				t.Fatalf("UnmergeFrom(MergeInto(a, b), b) != a: %q vs %q", got, keyA)
			}
			// ExtractRange splits components out; merging them back
			// restores the whole.
			scratch := adt.Clone(whole)
			extracted, n := part.ExtractRange(scratch, func(k string) bool { return keys[1][k] })
			if n > 0 {
				restored := part.MergeInto(scratch, extracted)
				if got := adt.KeyState(restored); got != wantWhole {
					t.Fatalf("MergeInto(ExtractRange split) did not restore the whole: %q vs %q", got, wantWhole)
				}
			}
		})
	}

	if qk, ok := adt.(updatec.QueryKeyer); ok {
		t.Run("query-keyer", func(t *testing.T) {
			in, hasOmega := obj.Omega()
			if !hasOmega {
				t.Skip("no ω query to probe")
			}
			k1, ok1 := qk.QueryInputKey(in)
			k2, ok2 := qk.QueryInputKey(in)
			if ok1 != ok2 || (ok1 && k1 != k2) {
				t.Fatalf("QueryInputKey is not deterministic for %v", in)
			}
			if ok1 {
				// Same cache key must mean same output on any one state.
				s := fold(obj, sample(obj, 7, 20))
				if !adt.EqualOutput(adt.Query(s, in), adt.Query(s, in)) {
					t.Fatalf("cacheable query %v is not a pure function of the state", in)
				}
			}
		})
	}

	if sc, ok := adt.(updatec.StateCodec); ok {
		t.Run("state-codec", func(t *testing.T) {
			s := fold(obj, sample(obj, 8, 25))
			b, err := sc.EncodeState(s)
			if err != nil {
				t.Fatalf("EncodeState: %v", err)
			}
			dec, err := sc.DecodeState(b)
			if err != nil {
				t.Fatalf("DecodeState: %v", err)
			}
			if want, got := adt.KeyState(s), adt.KeyState(dec); want != got {
				t.Fatalf("state round-trip diverged: %q vs %q", got, want)
			}
		})
	}

	qc, ok := obj.Codec().(updatec.QueryCodec)
	if !ok {
		qc, ok = adt.(updatec.QueryCodec)
	}
	if in, hasOmega := obj.Omega(); ok && hasOmega {
		t.Run("query-codec", func(t *testing.T) {
			// What a Dial client asks and what it is answered must both
			// survive the wire: the ω input, and its output on the empty
			// state and on states the workload reaches.
			b, err := qc.AppendQueryInput(nil, in)
			if err != nil {
				t.Fatalf("AppendQueryInput(%v): %v", in, err)
			}
			dec, err := qc.DecodeQueryInput(b)
			if err != nil {
				t.Fatalf("DecodeQueryInput of %v's encoding: %v", in, err)
			}
			check := func(i int, s updatec.State) {
				want := adt.Query(s, in)
				if got := adt.Query(s, dec); !adt.EqualOutput(got, want) {
					t.Fatalf("after %d updates the decoded input answers %v, the original %v", i, got, want)
				}
				b, err := qc.AppendQueryOutput(nil, want)
				if err != nil {
					t.Fatalf("AppendQueryOutput(%v): %v", want, err)
				}
				if got, err := qc.DecodeQueryOutput(in, b); err != nil || !adt.EqualOutput(got, want) {
					t.Fatalf("after %d updates output %v came back as %v (%v)", i, want, got, err)
				}
			}
			s := adt.Initial()
			check(0, s)
			for i, u := range sample(obj, 12, 20) {
				s = adt.Apply(s, u)
				check(i+1, s)
			}
		})
	}

	if m, ok := adt.(updatec.Masking); ok {
		t.Run("masking", func(t *testing.T) {
			// Round-robin over k0, k0, k1 gives pairs of both kinds.
			us := sampleKeyed(obj, 11, 40, []string{"k0", "k0", "k1"})
			s := fold(obj, us[:10])
			for i := 10; i+1 < len(us); i++ {
				a, b := us[i], us[i+1]
				got := adt.KeyState(adt.Apply(adt.Apply(adt.Clone(s), a), b))
				want := adt.Apply(adt.Clone(s), b)
				if m.MaskKey(a) != m.MaskKey(b) {
					want = adt.Apply(want, a)
				}
				if got != adt.KeyState(want) {
					t.Fatalf("%v then %v (mask keys %q, %q): %q, want %q", a, b, m.MaskKey(a), m.MaskKey(b), got, adt.KeyState(want))
				}
				s = adt.Apply(s, a)
			}
		})
	}

	t.Run("convergence", func(t *testing.T) {
		cl, handles, err := updatec.New(3, obj.Dynamic(), updatec.WithSeed(9))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer cl.Close()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 60; i++ {
			if u, ok := obj.RandomUpdate(rng, fmt.Sprintf("k%d", i%4)); ok {
				handles[i%3].Update(u)
			}
		}
		cl.Settle()
		if !cl.Converged() {
			t.Fatalf("3-replica cluster did not converge under update consistency")
		}
	})
}

// sample draws n workload updates over a fixed small key pool.
func sample[H any](obj updatec.Object[H], seed int64, n int) []updatec.Update {
	return sampleKeyed(obj, seed, n, []string{"k0", "k1", "k2", "k3"})
}

// sampleKeyed draws n workload updates targeting the given keys
// round-robin.
func sampleKeyed[H any](obj updatec.Object[H], seed int64, n int, keys []string) []updatec.Update {
	rng := rand.New(rand.NewSource(seed))
	us := make([]updatec.Update, 0, n)
	for i := 0; len(us) < n && i < 10*n; i++ {
		if u, ok := obj.RandomUpdate(rng, keys[i%len(keys)]); ok {
			us = append(us, u)
		}
	}
	return us
}

// fold applies updates from the initial state.
func fold[H any](obj updatec.Object[H], us []updatec.Update) updatec.State {
	adt := obj.Spec()
	s := adt.Initial()
	for _, u := range us {
		s = adt.Apply(s, u)
	}
	return s
}
