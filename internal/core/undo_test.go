package core

import (
	"fmt"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// costSpec counts the work an engine asks of a spec, so the tests can
// tell repair strategies apart by what they cost rather than by
// the engine's internals.
type costSpec struct {
	spec.UQADT
	// applies counts Apply and ApplyUndo calls; bases counts the states
	// a fold can start over from (Initial, or Clone of the log base).
	applies, bases int
}

func (c *costSpec) Apply(s spec.State, u spec.Update) spec.State {
	c.applies++
	return c.UQADT.Apply(s, u)
}

func (c *costSpec) Initial() spec.State {
	c.bases++
	return c.UQADT.Initial()
}

func (c *costSpec) Clone(s spec.State) spec.State {
	c.bases++
	return c.UQADT.Clone(s)
}

// undoCostSpec is costSpec for an Undoable spec.
type undoCostSpec struct{ costSpec }

func (c *undoCostSpec) ApplyUndo(s spec.State, u spec.Update) (spec.State, spec.Undo) {
	c.applies++
	return c.UQADT.(spec.Undoable).ApplyUndo(s, u)
}

// foldRig is a log with an UndoEngine and the ReplayEngine oracle bound
// to it.
type foldRig struct {
	t      *testing.T
	adt    spec.UQADT
	log    *Log
	fold   *UndoEngine
	replay *ReplayEngine
}

func newFoldRig(t *testing.T, adt spec.UQADT) *foldRig {
	r := &foldRig{t: t, adt: adt, log: NewLog(adt), fold: NewUndoEngine(), replay: NewReplayEngine()}
	r.fold.Bind(adt, r.log)
	r.replay.Bind(adt, r.log)
	return r
}

func (r *foldRig) insert(cl uint64, p int, u spec.Update) {
	r.fold.Inserted(r.log.Insert(Entry{TS: clock.Timestamp{Clock: cl, Proc: p}, U: u}))
}

// read checks the fold against the oracle and returns its key.
func (r *foldRig) read() string {
	r.t.Helper()
	got, want := r.adt.KeyState(r.fold.State()), r.adt.KeyState(r.replay.State())
	if got != want {
		r.t.Fatalf("fold %s != replay %s at log length %d", got, want, r.log.Len())
	}
	if s, ok := r.fold.StateConcurrent(); !ok || r.adt.KeyState(s) != want {
		r.t.Fatalf("StateConcurrent not current right after State (ok=%v)", ok)
	}
	return got
}

// TestUndoEngineRepairCosts prices each repair strategy in spec calls:
// inserts cost nothing, a tail catch-up costs what arrived, a late
// arrival inside the undo window costs the displaced suffix, and one
// beyond it costs exactly one replay of the log, never more.
func TestUndoEngineRepairCosts(t *testing.T) {
	const n = undoWindow + 200
	fill := func(r *foldRig) {
		for i := 0; i < n; i++ {
			r.insert(uint64(10*(i+1)), 0, spec.Ins{V: fmt.Sprint(i % 7)})
		}
	}

	t.Run("undoable", func(t *testing.T) {
		c := &undoCostSpec{costSpec{UQADT: spec.Set()}}
		r := newFoldRig(t, c)
		fill(r)
		if c.applies != 0 {
			t.Fatalf("Inserted did fold work: %d applications", c.applies)
		}
		r.fold.State()
		if c.applies != n || c.bases != 1 {
			t.Fatalf("first read: %d applications, %d rebuilds; want %d, 1", c.applies, c.bases, n)
		}
		c.applies = 0
		r.insert(uint64(10*(n+1)), 0, spec.Del{V: "3"})
		r.fold.State()
		if c.applies != 1 {
			t.Fatalf("tail catch-up cost %d applications, want 1", c.applies)
		}
		// Late by 10 entries: undo 10, redo 11.
		c.applies, c.bases = 0, 0
		r.insert(uint64(10*(n+1-10)+5), 1, spec.Del{V: "4"})
		r.fold.State()
		if c.applies != 11 || c.bases != 0 {
			t.Fatalf("late insert inside the window: %d applications, %d rebuilds; want 11, 0", c.applies, c.bases)
		}
		// Later than the window reaches: one replay.
		c.applies, c.bases = 0, 0
		r.insert(15, 1, spec.Ins{V: "deep"})
		r.fold.State()
		if c.applies != r.log.Len() || c.bases != 1 {
			t.Fatalf("late insert beyond the window: %d applications, %d rebuilds; want %d, 1", c.applies, c.bases, r.log.Len())
		}
		r.read()
	})
}

// TestDefaultEngineByCapability: a spec that can undo gets the undo
// engine; one that cannot gets checkpoints, so that a read after a late
// arrival costs it a replay from the last snapshot, not of the log.
func TestDefaultEngineByCapability(t *testing.T) {
	if _, ok := DefaultEngine(spec.Queue()).(*UndoEngine); !ok {
		t.Fatalf("an Undoable spec got %s", DefaultEngine(spec.Queue()).Name())
	}
	// Queue behind a wrapper that hides its Undoable implementation.
	c := &costSpec{UQADT: struct{ spec.UQADT }{spec.Queue()}}
	eng := DefaultEngine(c)
	if _, ok := eng.(*CheckpointEngine); !ok {
		t.Fatalf("a spec that cannot undo got %s", eng.Name())
	}
	const n = 1000
	log := NewLog(c)
	eng.Bind(c, log)
	insert := func(cl uint64, p int, u spec.Update) {
		eng.Inserted(log.Insert(Entry{TS: clock.Timestamp{Clock: cl, Proc: p}, U: u}))
	}
	for i := 0; i < n; i++ {
		insert(uint64(10*(i+1)), 0, spec.Enq{V: fmt.Sprint(i)})
	}
	eng.State()
	c.applies = 0
	insert(uint64(10*n-5), 1, spec.DeqFront{})
	got := c.KeyState(eng.State())
	if c.applies > 2*64 {
		t.Fatalf("a read after a late arrival cost %d applications on a %d-entry log", c.applies, log.Len())
	}
	if want := c.KeyState(log.Replay()); got != want {
		t.Fatalf("state %s, a replay gives %s", got, want)
	}
}

// TestUndoEngineCompactionShifts: compacting a prefix the fold already
// covers keeps the fold (no rebuild on the next read) — also when that
// prefix is everything folded; compacting past the cursor, or under a
// pending late arrival, drops it.
func TestUndoEngineCompactionShifts(t *testing.T) {
	c := &undoCostSpec{costSpec{UQADT: spec.Set()}}
	r := newFoldRig(t, c)
	for i := 1; i <= 40; i++ {
		r.insert(uint64(10*i), 0, spec.Ins{V: fmt.Sprint(i % 5)})
	}
	r.fold.State()
	compact := func(horizon uint64) {
		if cut := r.log.CompactBelow(horizon); cut > 0 {
			r.fold.Compacted(cut)
		}
	}
	wantFolded := func(what string, n int, held bool) {
		t.Helper()
		if gotN, gotHeld := r.fold.Folded(); gotN != n || gotHeld != held {
			t.Fatalf("%s: Folded() = %d, %v; want %d, %v", what, gotN, gotHeld, n, held)
		}
	}
	compact(300) // 30 of the 40 folded entries
	wantFolded("after a covered compaction", 10, true)
	if _, ok := r.fold.StateConcurrent(); !ok {
		t.Fatal("fold not current after a covered compaction")
	}
	// A late arrival above the new base still repairs by undo/redo.
	c.bases = 0
	r.insert(355, 1, spec.Del{V: "1"})
	r.fold.State()
	if c.bases != 0 {
		t.Fatalf("covered compaction forced a rebuild")
	}
	r.read()

	// Everything folded compacted: the state is still held, over no
	// live entry, and the next arrival is a one-application catch-up.
	compact(401)
	wantFolded("after compacting every folded entry", 0, true)
	c.bases = 0
	r.insert(405, 0, spec.Ins{V: "w"})
	r.fold.State()
	if c.bases != 0 {
		t.Fatalf("compacting every folded entry forced a rebuild")
	}
	r.read()

	// Unread entries at the tail, compacted together with read ones.
	r.insert(410, 0, spec.Ins{V: "x"})
	r.insert(420, 0, spec.Ins{V: "y"})
	compact(415)
	wantFolded("after a compaction past the cursor", 0, false)
	r.read()

	// A pending late arrival inside the compacted prefix.
	r.insert(500, 0, spec.Ins{V: "z"})
	r.read()
	r.insert(417, 1, spec.Del{V: "x"})
	compact(418)
	wantFolded("after a compaction over an unrepaired late arrival", 0, false)
	r.read()
}

// TestStateKeyAfterFullCompaction: a queried replica whose folded
// entries were all compacted still holds its state, and StateKey
// catches that state up instead of replaying the log into a throwaway
// copy of the base.
func TestStateKeyAfterFullCompaction(t *testing.T) {
	net := transportFIFO(2, 11)
	reps := Cluster(2, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 1 << 30})
	for i := 0; i < 20; i++ {
		reps[i%2].Update(spec.Ins{V: fmt.Sprint(i % 7)})
		net.Quiesce()
	}
	reps[0].Query(spec.Read{})
	// The 20 folded entries are stable; a further local update is not.
	reps[0].Update(spec.Ins{V: "x"})
	net.Quiesce()
	reps[0].ForceCompact()
	st := reps[0].Stats()
	if st.Compacted != 20 || st.Folded != 0 || st.LogLen == 0 {
		t.Fatalf("setup: compacted %d of the 20 folded entries, cursor %d, %d live", st.Compacted, st.Folded, st.LogLen)
	}
	key := reps[0].StateKey()
	if st := reps[0].Stats(); st.Folded != st.LogLen {
		t.Fatalf("StateKey replayed beside the held state: cursor %d, %d live entries", st.Folded, st.LogLen)
	}
	if want := reps[1].StateKey(); key != want {
		t.Fatalf("state key %s, want %s", key, want)
	}
}

// TestStateKeyPinsNothing is the memory guard: convergence polling must
// not make a replica no query ever touched hold a folded state, while
// one query does, and StateKey then reuses and catches up that fold.
func TestStateKeyPinsNothing(t *testing.T) {
	const n = 100
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{})
	for i := 0; i < n; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i % 17)})
	}
	net.Quiesce()
	if reps[0].StateKey() != reps[1].StateKey() {
		t.Fatal("replicas diverged")
	}
	for _, r := range reps {
		if f := r.Stats().Folded; f != 0 {
			t.Fatalf("replica %d: StateKey installed a fold over %d entries", r.ID(), f)
		}
	}
	reps[1].Query(spec.Has{V: "3"})
	if f := reps[1].Stats().Folded; f != n {
		t.Fatalf("one query folded %d entries, want %d", f, n)
	}
	if f := reps[0].Stats().Folded; f != 0 {
		t.Fatalf("a query on replica 1 folded %d entries on replica 0", f)
	}
	reps[0].Update(spec.Del{V: "3"})
	net.Quiesce()
	if reps[0].StateKey() != reps[1].StateKey() {
		t.Fatal("replicas diverged")
	}
	if f := reps[1].Stats().Folded; f != n+1 {
		t.Fatalf("StateKey on a queried replica left the fold at %d, want %d", f, n+1)
	}
	if f := reps[0].Stats().Folded; f != 0 {
		t.Fatalf("replica 0 now holds a fold over %d entries", f)
	}
}
