package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// applyScript drives a log+engine pair through a scripted sequence of
// timestamped inserts, querying the state after each step.
func applyScript(t *testing.T, eng Engine, script []Entry) []string {
	t.Helper()
	adt := spec.Set()
	log := NewLog(adt)
	eng.Bind(adt, log)
	var states []string
	for _, e := range script {
		at := log.Insert(e)
		eng.Inserted(at)
		states = append(states, adt.KeyState(eng.State()))
	}
	return states
}

// randomScript builds out-of-order timestamped set updates.
func randomScript(rng *rand.Rand, n int) []Entry {
	perm := rng.Perm(n)
	script := make([]Entry, n)
	support := []string{"1", "2", "3"}
	for i, p := range perm {
		var u spec.Update
		v := support[rng.Intn(len(support))]
		if rng.Intn(2) == 0 {
			u = spec.Ins{V: v}
		} else {
			u = spec.Del{V: v}
		}
		script[i] = Entry{TS: clock.Timestamp{Clock: uint64(p + 1), Proc: p % 3}, U: u}
	}
	return script
}

// TestQuickEnginesAgree: the engines must produce identical states
// after every insertion, for arbitrary out-of-order delivery.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 1
		mk := func() []Entry {
			return randomScript(rand.New(rand.NewSource(seed)), n)
		}
		replay := applyScript(t, NewReplayEngine(), mk())
		ckpt := applyScript(t, NewCheckpointEngine(4), mk())
		undo := applyScript(t, NewUndoEngine(), mk())
		for i := range replay {
			if replay[i] != ckpt[i] || replay[i] != undo[i] {
				t.Logf("step %d: replay=%s checkpoint=%s undo=%s",
					i, replay[i], ckpt[i], undo[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointInvalidation(t *testing.T) {
	adt := spec.Set()
	log := NewLog(adt)
	eng := NewCheckpointEngine(2)
	eng.Bind(adt, log)
	// In-order inserts build checkpoints.
	for i := 1; i <= 6; i++ {
		at := log.Insert(Entry{TS: clock.Timestamp{Clock: uint64(i * 2), Proc: 0}, U: spec.Ins{V: fmt.Sprint(i)}})
		eng.Inserted(at)
		_ = eng.State()
	}
	if len(eng.marks) == 0 {
		t.Fatalf("no checkpoints built")
	}
	// A late insert at the front invalidates everything.
	at := log.Insert(Entry{TS: clock.Timestamp{Clock: 1, Proc: 1}, U: spec.Del{V: "1"}})
	eng.Inserted(at)
	if len(eng.marks) != 0 {
		t.Fatalf("stale checkpoints survived: %d", len(eng.marks))
	}
	// State must still be correct: D(1) applied first, then I(1..6).
	if got := adt.KeyState(eng.State()); got != "{1, 2, 3, 4, 5, 6}" {
		t.Fatalf("state after late insert: %s", got)
	}
}

func TestUndoEngineLateInsert(t *testing.T) {
	adt := spec.Set()
	log := NewLog(adt)
	eng := NewUndoEngine()
	eng.Bind(adt, log)
	ins := func(cl uint64, p int, u spec.Update) {
		at := log.Insert(Entry{TS: clock.Timestamp{Clock: cl, Proc: p}, U: u})
		eng.Inserted(at)
	}
	ins(10, 0, spec.Ins{V: "a"})
	ins(20, 0, spec.Del{V: "a"})
	if got := adt.KeyState(eng.State()); got != "∅" {
		t.Fatalf("state: %s", got)
	}
	// Late I(a) lands between the two: I(a)·I(a)·D(a) → ∅ still.
	ins(15, 1, spec.Ins{V: "a"})
	if got := adt.KeyState(eng.State()); got != "∅" {
		t.Fatalf("state after splice: %s", got)
	}
	// Late D(a) before everything: D(a)·I(a)·I(a)·D(a) → ∅.
	ins(5, 1, spec.Del{V: "a"})
	if got := adt.KeyState(eng.State()); got != "∅" {
		t.Fatalf("state after early splice: %s", got)
	}
	// Late I(b) at the very end position... cl=25.
	ins(25, 1, spec.Ins{V: "b"})
	if got := adt.KeyState(eng.State()); got != "{b}" {
		t.Fatalf("state after tail insert: %s", got)
	}
}

func TestUndoEngineRequiresUndoable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic binding undo engine to a non-undoable spec")
		}
	}()
	// Hide QueueSpec's Undoable implementation behind a bare-UQADT
	// wrapper: the wrapper's method set has only the interface methods.
	bare := struct{ spec.UQADT }{spec.Queue()}
	NewUndoEngine().Bind(bare, NewLog(bare))
}

func TestLogInsertSortsByTimestamp(t *testing.T) {
	log := NewLog(spec.Set())
	log.Insert(Entry{TS: clock.Timestamp{Clock: 3, Proc: 0}, U: spec.Ins{V: "c"}})
	log.Insert(Entry{TS: clock.Timestamp{Clock: 1, Proc: 1}, U: spec.Ins{V: "a"}})
	at := log.Insert(Entry{TS: clock.Timestamp{Clock: 2, Proc: 0}, U: spec.Ins{V: "b"}})
	if at != 1 {
		t.Fatalf("insert position: %d", at)
	}
	// Same clock, different pid: pid breaks the tie.
	at = log.Insert(Entry{TS: clock.Timestamp{Clock: 2, Proc: 1}, U: spec.Ins{V: "b2"}})
	if at != 2 {
		t.Fatalf("tie-break position: %d", at)
	}
	var got []uint64
	for _, e := range log.Entries() {
		got = append(got, e.TS.Clock)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("log unsorted: %v", got)
		}
	}
}

func TestLogDuplicateTimestampPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate timestamp")
		}
	}()
	log := NewLog(spec.Set())
	log.Insert(Entry{TS: clock.Timestamp{Clock: 1, Proc: 0}, U: spec.Ins{V: "a"}})
	log.Insert(Entry{TS: clock.Timestamp{Clock: 1, Proc: 0}, U: spec.Ins{V: "b"}})
}

func TestLogCompaction(t *testing.T) {
	adt := spec.Set()
	log := NewLog(adt)
	for i := 1; i <= 10; i++ {
		log.Insert(Entry{TS: clock.Timestamp{Clock: uint64(i), Proc: 0}, U: spec.Ins{V: fmt.Sprint(i % 3)}})
	}
	before := adt.KeyState(log.Replay())
	n := log.CompactBelow(7)
	if n != 7 {
		t.Fatalf("compacted %d, want 7", n)
	}
	if log.Len() != 3 || log.TotalLen() != 10 {
		t.Fatalf("lengths after compaction: live=%d total=%d", log.Len(), log.TotalLen())
	}
	if got := adt.KeyState(log.Replay()); got != before {
		t.Fatalf("compaction changed the state: %s vs %s", got, before)
	}
	// Inserting below the horizon must panic loudly.
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic inserting below horizon")
		}
	}()
	log.Insert(Entry{TS: clock.Timestamp{Clock: 2, Proc: 1}, U: spec.Ins{V: "x"}})
}

// TestQuickCompactionPreservesReplay: compacting at any horizon leaves
// Replay unchanged.
func TestQuickCompactionPreservesReplay(t *testing.T) {
	adt := spec.Set()
	f := func(seed int64, nn, hh uint8) bool {
		n := int(nn%20) + 1
		rng := rand.New(rand.NewSource(seed))
		log := NewLog(adt)
		for _, e := range randomScript(rng, n) {
			log.Insert(e)
		}
		before := adt.KeyState(log.Replay())
		log.CompactBelow(uint64(hh % 25))
		return adt.KeyState(log.Replay()) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGCKeepsLogBoundedAndConverges(t *testing.T) {
	// Steady update traffic with frequent delivery: with GC on a FIFO
	// transport the live log must stay far below the op count, and the
	// replicas still converge to identical states.
	const n, rounds = 3, 200
	net := transportFIFO(n, 77)
	reps := Cluster(n, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 8})
	rng := rand.New(rand.NewSource(77))
	for k := 0; k < rounds; k++ {
		p := k % n
		reps[p].Update(spec.Ins{V: fmt.Sprint(rng.Intn(5))})
		net.StepN(2 + rng.Intn(4))
	}
	net.Quiesce()
	for _, r := range reps {
		r.ForceCompact()
	}
	want := reps[0].StateKey()
	for _, r := range reps[1:] {
		if got := r.StateKey(); got != want {
			t.Fatalf("GC run diverged: %s vs %s", got, want)
		}
	}
	for _, r := range reps {
		s := r.Stats()
		if s.TotalOps != rounds {
			t.Fatalf("replica %d saw %d of %d updates", r.ID(), s.TotalOps, rounds)
		}
		if s.Compacted == 0 {
			t.Fatalf("replica %d never compacted", r.ID())
		}
		if s.LogLen > rounds/2 {
			t.Fatalf("replica %d log not bounded: %d live of %d", r.ID(), s.LogLen, rounds)
		}
	}
}

func TestGCWithRetiredCrashedProcess(t *testing.T) {
	// A crashed process freezes the horizon until retired.
	const n = 3
	net := transportFIFO(n, 5)
	reps := Cluster(n, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 4})
	reps[2].Update(spec.Ins{V: "z"})
	net.Quiesce()
	net.Crash(2)
	for k := 0; k < 50; k++ {
		reps[k%2].Update(spec.Ins{V: fmt.Sprint(k % 3)})
		net.StepN(3)
	}
	net.Quiesce()
	reps[0].ForceCompact()
	if s := reps[0].Stats(); s.Compacted > 1 {
		t.Fatalf("horizon should be frozen by the crashed process, compacted %d", s.Compacted)
	}
	reps[0].RetireProcess(2)
	reps[0].ForceCompact()
	if s := reps[0].Stats(); s.Compacted == 0 {
		t.Fatalf("retiring the crashed process should unblock GC")
	}
}

// TestQuickGCNeverReordersConvergence: across seeds, GC-enabled and
// GC-free clusters converge to the same final state.
func TestQuickGCNeverReordersConvergence(t *testing.T) {
	f := func(seed int64) bool {
		const n = 3
		run := func(gc bool) string {
			net := transportFIFO(n, seed)
			reps := Cluster(n, spec.Set(), net, ClusterOptions{GC: gc, GCEvery: 4})
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 30; k++ {
				p := rng.Intn(n)
				v := fmt.Sprint(rng.Intn(4))
				if rng.Intn(2) == 0 {
					reps[p].Update(spec.Ins{V: v})
				} else {
					reps[p].Update(spec.Del{V: v})
				}
				net.StepN(rng.Intn(4))
			}
			net.Quiesce()
			return reps[0].StateKey()
		}
		return run(true) == run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// transportFIFO builds a deterministic FIFO network (the GC
// prerequisite).
func transportFIFO(n int, seed int64) *transport.SimNetwork {
	return transport.NewSim(transport.SimOptions{N: n, Seed: seed, FIFO: true})
}
