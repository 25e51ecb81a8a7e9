package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// mergeKey is an update's key: what precedes the colon in its value.
func mergeKey(u spec.Update) string {
	k, _, _ := strings.Cut(u.(spec.Ins).V, ":")
	return k
}

// mergeCase is one log shape a batch is merged into.
type mergeCase struct {
	name string
	// base: "" none, "own" a CompactBelow base (arrivals below it panic),
	// "merged" a MergeSnapshot-style base (arrivals below it are
	// duplicates).
	base string
}

var mergeCases = []mergeCase{
	{name: "plain"},
	{name: "compacted", base: "own"},
	{name: "merged-base", base: "merged"},
}

// mergeHorizon is the compaction horizon of the cases that have a base;
// clocks are drawn from [1, mergeSpan].
const (
	mergeHorizon = 40
	mergeSpan    = 400
)

// mergeEntry draws a random entry; serial makes its update distinguishable
// from every other draw, so the tests can tell which of two equal
// entries a log kept. With few clocks and procs, equal stamps are
// frequent.
func mergeEntry(rng *rand.Rand, lo, hi uint64, serial *int) Entry {
	*serial++
	return Entry{
		TS: clock.Timestamp{Clock: lo + uint64(rng.Int63n(int64(hi-lo+1))), Proc: rng.Intn(3)},
		U:  spec.Ins{V: fmt.Sprintf("k%d:%d", rng.Intn(3), *serial)},
	}
}

// seed builds the case's log with some live entries, identically on
// every call with the same entries.
func (c mergeCase) seed(live []Entry) *Log {
	l := NewLog(spec.Set())
	switch c.base {
	case "own":
		for cl := uint64(1); cl <= mergeHorizon; cl += 7 {
			l.InsertDedup(Entry{TS: clock.Timestamp{Clock: cl}, U: spec.Ins{V: "k0:base"}})
		}
		l.CompactBelow(mergeHorizon)
	case "merged":
		l.RestoreBase(spec.Set().Initial(), clock.Timestamp{Clock: mergeHorizon, Proc: 1}, 5, 0)
		l.merged = true
	}
	for _, e := range live {
		l.InsertDedup(e)
	}
	return l
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergeSortedMatchesInsertDedup is the property the bulk paths rest
// on: merging a batch leaves the log, its version, its fingerprint and
// the returned counts exactly as inserting the same entries one at a
// time does.
func TestMergeSortedMatchesInsertDedup(t *testing.T) {
	for _, c := range mergeCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				serial := 0
				floor := uint64(1)
				if c.base != "" {
					floor = mergeHorizon + 1
				}
				var live []Entry
				for i, n := 0, rng.Intn(120); i < n; i++ {
					live = append(live, mergeEntry(rng, floor, mergeSpan, &serial))
				}
				// The batch: fresh entries over a range that, by seed, sits
				// inside, entirely above or entirely below the live ones;
				// repeats of live entries; repeats of itself; and, under a
				// merged base, entries below the horizon.
				lo, hi := floor, uint64(mergeSpan)
				switch seed % 4 {
				case 1:
					lo, hi = mergeSpan+1, mergeSpan+50
				case 2:
					if c.base == "" {
						for i := range live {
							live[i].TS.Clock += 60
						}
						hi = 50
					}
				}
				var batch []Entry
				for i, n := 0, rng.Intn(80); i < n; i++ {
					batch = append(batch, mergeEntry(rng, lo, hi, &serial))
				}
				for i, n := 0, rng.Intn(20); i < n && len(live) > 0; i++ {
					e := live[rng.Intn(len(live))]
					e.U = spec.Ins{V: mergeKey(e.U) + ":again"}
					batch = append(batch, e)
				}
				for i, n := 0, rng.Intn(10); i < n && len(batch) > 0; i++ {
					batch = append(batch, batch[rng.Intn(len(batch))])
				}
				if c.base == "merged" {
					for i, n := 0, rng.Intn(10); i < n; i++ {
						batch = append(batch, mergeEntry(rng, 1, mergeHorizon, &serial))
					}
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				if seed%10 == 0 {
					batch = nil
				}

				// Entries only: the arrival order as shuffled, one by one.
				arrival := c.seed(live)
				for _, e := range batch {
					arrival.InsertDedup(e)
				}
				// Entries and counts: the sorted order, one by one.
				merged, oracle := c.seed(live), c.seed(live)
				merged.SortEntries(batch)
				wantFirst, wantLanded, wantLate, wantDups := oracle.Len(), 0, 0, 0
				var landedEntries []Entry
				for _, e := range batch {
					at, ok := oracle.InsertDedup(e)
					switch {
					case !ok:
						wantDups++
					default:
						wantLanded++
						landedEntries = append(landedEntries, e)
						if at != oracle.Len()-1 {
							wantLate++
						}
					}
				}
				if wantLanded > 0 {
					// The lowest landing index is where the smallest new
					// entry ended up.
					for i, e := range oracle.Entries() {
						if e == landedEntries[0] {
							wantFirst = i
							break
						}
					}
				}
				before := merged.Version()
				first, landed, late, dups := merged.MergeSorted(batch)
				if !sameEntries(merged.Entries(), oracle.Entries()) {
					t.Fatalf("seed %d: merge and one-by-one insertion of the sorted batch disagree\nmerge  %v\noracle %v", seed, merged.Entries(), oracle.Entries())
				}
				if !sameEntries(merged.Entries(), arrival.Entries()) {
					t.Fatalf("seed %d: sorting the batch changed what survives\nmerge   %v\narrival %v", seed, merged.Entries(), arrival.Entries())
				}
				if first != wantFirst || landed != wantLanded || late != wantLate || dups != wantDups {
					t.Fatalf("seed %d: MergeSorted = first %d landed %d late %d dups %d; one by one: %d %d %d %d",
						seed, first, landed, late, dups, wantFirst, wantLanded, wantLate, wantDups)
				}
				if got := merged.Version() - before; got != uint64(landed) {
					t.Fatalf("seed %d: version moved by %d for %d landed", seed, got, landed)
				}
				if merged.Version() != oracle.Version() {
					t.Fatalf("seed %d: version %d, one by one %d", seed, merged.Version(), oracle.Version())
				}
				if fp := merged.Fingerprint(); fp != oracle.Fingerprint() || fp != arrival.Fingerprint() {
					t.Fatalf("seed %d: fingerprint %v, one by one %v, in arrival order %v", seed, fp, oracle.Fingerprint(), arrival.Fingerprint())
				}
			}
		})
	}
}

// TestMergeSortedGuards: the two states only a bug can produce stay
// panics — an arrival under this log's own compaction horizon, as in
// InsertDedup, and a batch the caller did not put in log order.
func TestMergeSortedGuards(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	c := mergeCase{base: "own"}
	mustPanic("a merge below the log's own horizon", func() {
		c.seed(nil).MergeSorted([]Entry{{TS: clock.Timestamp{Clock: mergeHorizon / 2}, U: spec.Ins{V: "k0:x"}}})
	})
	mustPanic("an unsorted batch", func() {
		NewLog(spec.Set()).MergeSorted([]Entry{
			{TS: clock.Timestamp{Clock: 9}, U: spec.Ins{V: "a"}},
			{TS: clock.Timestamp{Clock: 3}, U: spec.Ins{V: "b"}},
		})
	})
}

// engineRig binds the three engines to one log, as three replicas
// holding the same updates would; every read compares them.
type engineRig struct {
	t       *testing.T
	adt     spec.UQADT
	log     *Log
	engines []Engine
}

func newEngineRig(t *testing.T) *engineRig {
	r := &engineRig{t: t, adt: spec.Set(), engines: []Engine{NewUndoEngine(), NewCheckpointEngine(64), NewReplayEngine()}}
	r.log = NewLog(r.adt)
	for _, e := range r.engines {
		e.Bind(r.adt, r.log)
	}
	return r
}

// merge lands a batch the way Replica.mergeLocked does: one merge, one
// notification.
func (r *engineRig) merge(batch []Entry) {
	r.log.SortEntries(batch)
	if first, landed, _, _ := r.log.MergeSorted(batch); landed > 0 {
		for _, e := range r.engines {
			e.Inserted(first)
		}
	}
}

func (r *engineRig) compact(horizon uint64) {
	if cut := r.log.CompactBelow(horizon); cut > 0 {
		for _, e := range r.engines {
			e.Compacted(cut)
		}
	}
}

func (r *engineRig) read(where string) {
	r.t.Helper()
	oracle := r.log.Replay()
	for _, e := range r.engines {
		s := e.State()
		if got, want := r.adt.KeyState(s), r.adt.KeyState(oracle); got != want {
			r.t.Fatalf("%s: %s holds %s, a replay gives %s", where, e.Name(), got, want)
		}
		for _, in := range []spec.QueryInput{spec.Read{}, spec.Has{V: "3"}, spec.Has{V: "late"}} {
			if got, want := r.adt.Query(s, in), r.adt.Query(oracle, in); !r.adt.EqualOutput(got, want) {
				r.t.Fatalf("%s: %s answers %v to %v, a replay %v", where, e.Name(), got, in, want)
			}
		}
	}
}

// TestBulkMergeBelowFoldCursor lands merges under states the engines
// already folded — inside the undo window, beyond it, across several
// checkpoint marks, around a compaction — and holds all three engines
// to a replay after each.
func TestBulkMergeBelowFoldCursor(t *testing.T) {
	const n = undoWindow + 700
	at := func(cl uint64, p int, u spec.Update) Entry {
		return Entry{TS: clock.Timestamp{Clock: cl, Proc: p}, U: u}
	}
	fill := func(r *engineRig) {
		var batch []Entry
		for i := 0; i < n; i++ {
			batch = append(batch, at(uint64(10*(i+1)), 0, spec.Ins{V: fmt.Sprint(i % 7)}))
		}
		r.merge(batch)
		r.read("first read")
	}
	// spread returns k entries of process 1 at clocks lo+5, lo+15, …:
	// each between two entries of fill, deletions and insertions mixed so
	// that a misplaced fold shows in the state.
	spread := func(lo uint64, k int) []Entry {
		var batch []Entry
		for i := 0; i < k; i++ {
			var u spec.Update = spec.Del{V: fmt.Sprint(i % 7)}
			if i%3 == 0 {
				u = spec.Ins{V: "late"}
			}
			batch = append(batch, at(lo+uint64(10*i)+5, 1, u))
		}
		return batch
	}

	t.Run("inside the undo window", func(t *testing.T) {
		r := newEngineRig(t)
		fill(r)
		r.merge(spread(uint64(10*(n-100)), 40))
		r.read("after the merge")
	})
	t.Run("beyond the undo window", func(t *testing.T) {
		r := newEngineRig(t)
		fill(r)
		// From the 30th entry to above the top: deeper than the window
		// and below most checkpoint marks.
		r.merge(append(spread(300, 20), spread(uint64(10*(n-5)), 10)...))
		r.read("after the merge")
		// And again, on top of the rebuilt states.
		r.merge(spread(uint64(10*(n-300)), 5))
		r.read("after the second merge")
	})
	t.Run("merge then compact before any read", func(t *testing.T) {
		r := newEngineRig(t)
		fill(r)
		r.merge(spread(uint64(10*(n-200)), 60))
		// The horizon falls among the merged entries.
		r.compact(uint64(10*(n-200)) + 300)
		r.read("after merge and compaction")
		r.merge(spread(uint64(10*(n-100)), 10))
		r.read("after a merge above the new base")
	})
	t.Run("compact then merge just above the base", func(t *testing.T) {
		r := newEngineRig(t)
		fill(r)
		r.compact(5000)
		r.read("after the compaction")
		r.merge(spread(5000, 30))
		r.read("after a merge onto the base")
	})
	t.Run("duplicates only", func(t *testing.T) {
		r := newEngineRig(t)
		fill(r)
		ver := r.log.Version()
		r.merge([]Entry{at(10, 0, spec.Ins{V: "0"}), at(uint64(10*n), 0, spec.Ins{V: "x"})})
		if r.log.Version() != ver {
			t.Fatal("a merge that landed nothing moved the version")
		}
		for _, e := range r.engines {
			if _, ok := e.StateConcurrent(); !ok {
				t.Fatalf("%s lost its state to a merge that landed nothing", e.Name())
			}
		}
	})
}
