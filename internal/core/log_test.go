package core

import (
	"fmt"
	"sync"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

func ts(cl uint64, proc int) clock.Timestamp { return clock.Timestamp{Clock: cl, Proc: proc} }

func ins(v string) spec.Update { return spec.Ins{V: v} }

// TestLogFastPathLandingPositions pins down where inserts land: every
// in-timestamp-order arrival appends at the tail (the fast path), and
// a late arrival is spliced into its sorted position.
func TestLogFastPathLandingPositions(t *testing.T) {
	log := NewLog(spec.Set())
	for i := 0; i < 10; i++ {
		at := log.Insert(Entry{TS: ts(uint64(2*i+2), 0), U: ins(fmt.Sprint(i))})
		if at != i {
			t.Fatalf("in-order insert %d landed at %d, want tail %d", i, at, i)
		}
	}
	// Equal clock, higher proc id is still "in order" (strictly above).
	if at := log.Insert(Entry{TS: ts(20, 1), U: ins("tie")}); at != 10 {
		t.Fatalf("tie-break append landed at %d, want 10", at)
	}
	// A late entry (clock 5 sorts between 4 and 6) lands mid-list.
	if at := log.Insert(Entry{TS: ts(5, 1), U: ins("late")}); at != 2 {
		t.Fatalf("late insert landed at %d, want 2", at)
	}
	// The list stays sorted after the splice.
	prev := clock.Timestamp{}
	for i, e := range log.Entries() {
		if i > 0 && !prev.Less(e.TS) {
			t.Fatalf("entries out of order at %d: %s !< %s", i, prev, e.TS)
		}
		prev = e.TS
	}
	if log.Len() != 12 || log.TotalLen() != 12 {
		t.Fatalf("Len=%d TotalLen=%d, want 12/12", log.Len(), log.TotalLen())
	}
}

// TestLogCompactionHeadOffset exercises the head-offset scheme: folds
// advance the head without copying the suffix, repeated folds trigger
// the bulk reclaim, and the log's contents survive all of it.
func TestLogCompactionHeadOffset(t *testing.T) {
	adt := spec.Set()
	log := NewLog(adt)
	next := uint64(1)
	expectTotal := 0
	for round := 0; round < 20; round++ {
		for k := 0; k < 16; k++ {
			log.Insert(Entry{TS: ts(next, 0), U: ins(fmt.Sprint(next % 5))})
			next++
		}
		expectTotal += 16
		// Keep the last 4 entries live, fold the rest.
		folded := log.CompactBelow(next - 5)
		if want := log.TotalLen() - log.Len(); log.Len() != 4 || folded <= 0 || expectTotal != want+log.Len() {
			t.Fatalf("round %d: folded=%d live=%d total=%d", round, folded, log.Len(), log.TotalLen())
		}
		if log.TotalLen() != expectTotal {
			t.Fatalf("round %d: TotalLen=%d want %d", round, log.TotalLen(), expectTotal)
		}
		// The replayed state must match a from-scratch replay of the
		// same update sequence.
		want := adt.Initial()
		for i := uint64(1); i < next; i++ {
			want = adt.Apply(want, ins(fmt.Sprint(i%5)))
		}
		if got, wantKey := adt.KeyState(log.Replay()), adt.KeyState(want); got != wantKey {
			t.Fatalf("round %d: replay diverged: %s != %s", round, got, wantKey)
		}
	}
	// CompactBelow with nothing stable is a no-op.
	if n := log.CompactBelow(0); n != 0 {
		t.Fatalf("compacting below everything folded %d entries", n)
	}
}

// TestLogBelowHorizonInsertPanics checks the invariant on both insert
// paths: an arrival at or below the compaction horizon panics whether
// it would append (empty live suffix) or splice.
func TestLogBelowHorizonInsertPanics(t *testing.T) {
	mk := func() *Log {
		log := NewLog(spec.Set())
		for i := uint64(1); i <= 8; i++ {
			log.Insert(Entry{TS: ts(i, 0), U: ins("x")})
		}
		log.CompactBelow(8) // live suffix now empty
		return log
	}
	t.Run("append-path", func(t *testing.T) {
		log := mk()
		defer func() {
			if recover() == nil {
				t.Fatal("below-horizon append did not panic")
			}
		}()
		log.Insert(Entry{TS: ts(3, 1), U: ins("y")})
	})
	t.Run("splice-path", func(t *testing.T) {
		log := mk()
		log.Insert(Entry{TS: ts(20, 0), U: ins("tail")})
		defer func() {
			if recover() == nil {
				t.Fatal("below-horizon splice did not panic")
			}
		}()
		log.Insert(Entry{TS: ts(3, 1), U: ins("y")})
	})
}

// TestLogReserve checks that a reservation makes subsequent in-order
// inserts proceed without growing the buffer.
func TestLogReserve(t *testing.T) {
	log := NewLog(spec.Set())
	log.Reserve(100)
	for i := uint64(1); i <= 100; i++ {
		log.Insert(Entry{TS: ts(i, 0), U: ins("x")})
	}
	if log.Len() != 100 {
		t.Fatalf("Len=%d want 100", log.Len())
	}
	first := &log.Entries()[0]
	log.Reserve(0) // no-op: capacity is already there
	if &log.Entries()[0] != first {
		t.Fatal("Reserve(0) reallocated the buffer")
	}
}

// TestLogVersionTracksMutation checks the log's mutation counter: it
// changes on every mutation and only on mutation.
func TestLogVersionTracksMutation(t *testing.T) {
	log := NewLog(spec.Set())
	v0 := log.Version()
	log.Insert(Entry{TS: ts(1, 0), U: ins("a")})
	v1 := log.Version()
	if v1 == v0 {
		t.Fatal("insert did not change the version")
	}
	if log.Replay(); log.Version() != v1 {
		t.Fatal("replay (a read) changed the version")
	}
	if log.CompactBelow(0); log.Version() != v1 {
		t.Fatal("no-op compaction changed the version")
	}
	log.Insert(Entry{TS: ts(2, 0), U: ins("b")})
	log.CompactBelow(2)
	if log.Version() == v1 {
		t.Fatal("compaction did not change the version")
	}
}

// TestStateKeyMatchesKeyStateAcrossSpecs checks the memoized canonical
// key against a direct serialization of the engine state, for
// every spec the library ships, before and after extra traffic.
func TestStateKeyMatchesKeyStateAcrossSpecs(t *testing.T) {
	cases := []struct {
		adt spec.UQADT
		ups []spec.Update
	}{
		{spec.Set(), []spec.Update{spec.Ins{V: "a"}, spec.Del{V: "a"}, spec.Ins{V: "b"}}},
		{spec.GSet(), []spec.Update{spec.Ins{V: "a"}, spec.Ins{V: "b"}}},
		{spec.Counter(), []spec.Update{spec.Add{N: 2}, spec.Add{N: -1}}},
		{spec.Register("r0"), []spec.Update{spec.Write{V: "v1"}, spec.Write{V: "v2"}}},
		{spec.Memory("0"), []spec.Update{spec.WriteKey{K: "x", V: "1"}, spec.WriteKey{K: "y", V: "2"}}},
		{spec.Log(), []spec.Update{spec.Append{V: "l1"}, spec.Append{V: "l2"}}},
		{spec.Sequence(), []spec.Update{spec.InsAt{Pos: 0, V: "s"}, spec.InsAt{Pos: 1, V: "t"}, spec.DelAt{Pos: 0}}},
		{spec.Queue(), []spec.Update{spec.Enq{V: "q1"}, spec.Enq{V: "q2"}, spec.DeqFront{}}},
		{spec.Stack(), []spec.Update{spec.Push{V: "p1"}, spec.PopTop{}, spec.Push{V: "p2"}}},
		{spec.Graph(), []spec.Update{spec.AddV{V: "u"}, spec.AddV{V: "v"}, spec.AddE{U: "u", V: "v"}}},
	}
	for _, c := range cases {
		t.Run(c.adt.Name(), func(t *testing.T) {
			net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5})
			reps := Cluster(2, c.adt, net, ClusterOptions{})
			check := func() {
				for _, r := range reps {
					want := c.adt.KeyState(r.engine.State())
					if got := r.StateKey(); got != want {
						t.Fatalf("replica %d: StateKey %q != KeyState %q", r.ID(), got, want)
					}
					if got := r.StateKey(); got != want { // memoized path
						t.Fatalf("replica %d: memoized StateKey %q != %q", r.ID(), got, want)
					}
				}
			}
			for i, u := range c.ups {
				reps[i%2].Update(u)
				check() // mid-traffic: replicas disagree, keys must still be exact
			}
			net.Quiesce()
			check()
			if reps[0].StateKey() != reps[1].StateKey() {
				t.Fatal("settled replicas disagree")
			}
			// More traffic must invalidate the memoized key.
			reps[0].Update(c.ups[0])
			net.Quiesce()
			check()
		})
	}
}

// TestEngineStateConcurrentAgrees drives each engine through mixed
// in-order and late traffic and checks that whenever StateConcurrent
// serves a state, it is the state State would have produced.
func TestEngineStateConcurrentAgrees(t *testing.T) {
	adt := spec.Set()
	for _, mk := range []func() Engine{
		func() Engine { return NewReplayEngine() },
		func() Engine { return NewCheckpointEngine(4) },
		func() Engine { return NewCheckpointEngineCapped(4, 2) },
		func() Engine { return NewUndoEngine() },
	} {
		eng := mk()
		log := NewLog(adt)
		eng.Bind(adt, log)
		clk := uint64(10)
		for i := 0; i < 64; i++ {
			tsv := ts(clk, 0)
			if i%5 == 4 {
				tsv = ts(clk-5, 1) // late
			}
			clk += 2
			at := log.Insert(Entry{TS: tsv, U: ins(fmt.Sprint(i % 7))})
			eng.Inserted(at)
			if s, ok := eng.StateConcurrent(); ok {
				if got, want := adt.KeyState(s), adt.KeyState(eng.State()); got != want {
					t.Fatalf("%s: StateConcurrent %s != State %s after %d inserts", eng.Name(), got, want, i+1)
				}
			}
			// After State() materialized checkpoints, the concurrent
			// path must be available and still agree.
			want := adt.KeyState(eng.State())
			s, ok := eng.StateConcurrent()
			if !ok {
				t.Fatalf("%s: StateConcurrent unavailable right after State", eng.Name())
			}
			if got := adt.KeyState(s); got != want {
				t.Fatalf("%s: StateConcurrent %s != %s", eng.Name(), got, want)
			}
		}
	}
}

// TestCheckpointMarkCap checks that the capped engine never retains
// more than maxMarks snapshots and still answers correctly when a late
// insert lands before the oldest retained mark.
func TestCheckpointMarkCap(t *testing.T) {
	adt := spec.Set()
	eng := NewCheckpointEngineCapped(2, 3)
	log := NewLog(adt)
	eng.Bind(adt, log)
	for i := 0; i < 40; i++ {
		at := log.Insert(Entry{TS: ts(uint64(10+2*i), 0), U: ins(fmt.Sprint(i % 9))})
		eng.Inserted(at)
		_ = eng.State()
		if len(eng.marks) > 3 {
			t.Fatalf("mark cap exceeded: %d marks", len(eng.marks))
		}
	}
	// Land an update before every retained mark: the engine must
	// rebuild from the log base and still agree with a plain replay.
	at := log.Insert(Entry{TS: ts(1, 1), U: ins("early")})
	eng.Inserted(at)
	if got, want := adt.KeyState(eng.State()), adt.KeyState(log.Replay()); got != want {
		t.Fatalf("capped engine diverged after very late insert: %s != %s", got, want)
	}
}

// TestConcurrentQueriesAllEngines hammers one replica with parallel
// queries while a peer keeps updating, on the live transport, for each
// engine. Run with -race this exercises the shared-lock read path
// against concurrent deliveries.
func TestConcurrentQueriesAllEngines(t *testing.T) {
	for _, mk := range []func() Engine{
		nil, // the default: UndoEngine
		func() Engine { return NewReplayEngine() },
		func() Engine { return NewCheckpointEngine(8) },
	} {
		opt := ClusterOptions{}
		if mk != nil {
			opt.NewEngine = mk
		}
		net := transport.NewLive(2)
		reps := Cluster(2, spec.Set(), net, opt)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					reps[0].Query(spec.Read{})
				}
			}()
		}
		for i := 0; i < 100; i++ {
			reps[1].Update(ins(fmt.Sprint(i % 13)))
		}
		wg.Wait()
		net.Drain()
		if reps[0].StateKey() != reps[1].StateKey() {
			t.Fatalf("engine %s: replicas diverged", reps[0].engine.Name())
		}
		net.Close()
	}
}
