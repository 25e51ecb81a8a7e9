package core

import (
	"fmt"

	"updatec/internal/spec"
)

// Engine computes the query-time state of Algorithm 1. The paper's
// literal algorithm replays the whole update list on every query
// (ReplayEngine); §VII-C notes that "in an effective implementation, a
// process can keep intermediate states", re-computed "only if very
// late messages arrive", and cites Karsenty & Beaudouin-Lafon's
// undo-based scheme for splicing late updates without replay.
//
// UndoEngine is that effective implementation, and what a replica runs
// unless told otherwise (DefaultEngine): it keeps the folded state H of
// a log prefix, does no fold work on the delivery path (Inserted only
// moves a mark), and repairs H when a query asks for it — the suffix a
// late arrival displaced is undone and redone, from undo records kept
// for the undoWindow most recently folded entries only (the memory
// bound); an arrival that sorted below that window rebuilds H from the
// log base, one ReplayEngine.State().
//
// It needs a spec.Undoable spec. A spec that cannot undo gets
// CheckpointEngine, whose late arrivals cost a replay from the last
// snapshot before them instead of a rebuild (experiment E8b prices
// both on such a spec). ReplayEngine is the oracle the tests and the
// benchmarks compare against. All engines produce identical states.
//
// Engines are driven by their replica under its lock; State and the
// mutating notifications (Bind, Inserted, Compacted) require the
// exclusive lock, while StateConcurrent and Folded may run under a
// shared lock concurrently with other readers.
type Engine interface {
	// Name identifies the engine in benchmark tables.
	Name() string
	// Bind attaches the engine to a log. It is called once before use
	// and again whenever the log was replaced or rewritten behind the
	// engine's back (Restore, MergeSnapshot): the engine must drop
	// everything it derived from the previous contents.
	Bind(adt spec.UQADT, log *Log)
	// Inserted notifies the engine that log.Entries()[at] was just
	// inserted.
	Inserted(at int)
	// Compacted notifies the engine that the first cut live entries
	// were just folded into the log base (Log.CompactBelow): every
	// remaining entry's index dropped by cut.
	Compacted(cut int)
	// State returns the state after all live entries (on top of the
	// log's base). The caller treats it as read-only and does not
	// retain it across mutations.
	State() spec.State
	// StateConcurrent returns the same state as State when it can do so
	// without mutating any engine-internal structure — i.e. when the
	// call is safe under a shared lock concurrently with other readers.
	// ok=false means the caller must fall back to State under an
	// exclusive lock (e.g. a checkpoint engine that would have to
	// record a new snapshot).
	StateConcurrent() (s spec.State, ok bool)
	// Folded reports whether the engine retains a state and how many
	// live entries that state covers (0 right after those entries were
	// all compacted into the base). Replica.StateKey uses held to avoid
	// making a never-queried replica pin a state.
	Folded() (n int, held bool)
}

// DefaultEngine returns the engine a replica of adt runs when its
// configuration names none: the undo engine where the spec can undo,
// a snapshot every 64 entries where it cannot.
func DefaultEngine(adt spec.UQADT) Engine {
	if _, ok := adt.(spec.Undoable); ok {
		return NewUndoEngine()
	}
	return NewCheckpointEngine(64)
}

// undoWindow is how many undo records an UndoEngine keeps: those of the
// most recently folded entries. A late arrival that sorts deeper costs
// a rebuild; the bound is what keeps the engine's memory independent of
// the log length, so it is a constant rather than an option.
const undoWindow = 256

// UndoEngine keeps h, the fold of the log base and of n live entries,
// and brings it up to date only when a query asks (State): a late
// arrival at position p is spliced in by undoing the folded suffix
// beyond p and redoing it — the Karsenty & Beaudouin-Lafon scheme cited
// in §VII-C, made lazy and bounded. O(1) per insert, O(what arrived
// since the last read) per query in the common case, O(|log|) per query
// at worst (see the Engine documentation). Requires a spec
// implementing spec.Undoable.
type UndoEngine struct {
	adt spec.UQADT
	und spec.Undoable
	log *Log
	// h is nil until the first State call and after drop; n is then 0.
	h spec.State
	n int
	// dirty is the lowest index an entry was inserted at below n since
	// h was last repaired, n when there was none: entries[:dirty) are
	// the first dirty entries folded into h, the other n-dirty folded
	// entries now sit somewhere above.
	dirty int
	// undos holds the undo records of the undos.size entries most
	// recently folded into h.
	undos undoRing
}

// undoRing is a fixed-capacity stack of undo records that forgets its
// oldest record when full.
type undoRing struct {
	buf  []spec.Undo // allocated on first push
	top  int         // slot of the next push
	size int
}

func (r *undoRing) push(u spec.Undo) {
	if r.buf == nil {
		r.buf = make([]spec.Undo, undoWindow)
	}
	r.buf[r.top] = u
	r.top = (r.top + 1) % undoWindow
	r.size = min(r.size+1, undoWindow)
}

func (r *undoRing) pop() spec.Undo {
	r.top = (r.top + undoWindow - 1) % undoWindow
	u := r.buf[r.top]
	r.buf[r.top] = nil
	r.size--
	return u
}

func (r *undoRing) reset() {
	clear(r.buf)
	r.top, r.size = 0, 0
}

// NewUndoEngine returns the lazily maintained fold; Bind panics if the
// data type does not support undo.
func NewUndoEngine() *UndoEngine { return &UndoEngine{} }

// Name implements Engine.
func (*UndoEngine) Name() string { return "undo" }

// Bind implements Engine.
func (e *UndoEngine) Bind(adt spec.UQADT, log *Log) {
	und, ok := adt.(spec.Undoable)
	if !ok {
		panic(fmt.Sprintf("core: %s does not implement spec.Undoable", adt.Name()))
	}
	e.adt, e.und, e.log = adt, und, log
	e.drop()
}

// drop forgets h; the next State call rebuilds it from the log base.
func (e *UndoEngine) drop() {
	e.h, e.n, e.dirty = nil, 0, 0
	e.undos.reset()
}

// Inserted implements Engine: no fold work happens here. An arrival
// above everything folded — any arrival at all while no h is held —
// needs no bookkeeping; one below it lowers the dirty mark.
func (e *UndoEngine) Inserted(at int) {
	if e.h != nil {
		e.dirty = min(e.dirty, at)
	}
}

// Compacted implements Engine: when the compacted entries are a prefix
// of what h folded, h stays and the cursor shifts. (Undo records of
// compacted entries may linger in the ring; a repair never reaches
// them, since it undoes at most the n entries above the base.)
func (e *UndoEngine) Compacted(cut int) {
	if e.h == nil {
		return
	}
	if cut > e.dirty {
		e.drop()
		return
	}
	e.n -= cut
	e.dirty -= cut
}

// State implements Engine: repair h below the cursor, then fold what
// sits above it.
func (e *UndoEngine) State() spec.State {
	if e.n-e.dirty > e.undos.size {
		// Deeper than the undo window.
		e.drop()
	}
	if e.h == nil {
		e.h = e.log.BaseState()
	}
	for e.n > e.dirty {
		e.h = e.undos.pop()(e.h)
		e.n--
	}
	rest := e.log.Entries()[e.n:]
	// Only the last undoWindow entries get undo records (a catch-up
	// that long overwrites the whole ring, so the records stay those of
	// the top of the fold).
	plain := max(0, len(rest)-undoWindow)
	for i := range rest[:plain] {
		e.h = e.adt.Apply(e.h, rest[i].U)
	}
	for i := range rest[plain:] {
		var u spec.Undo
		e.h, u = e.und.ApplyUndo(e.h, rest[plain+i].U)
		e.undos.push(u)
	}
	e.n += len(rest)
	e.dirty = e.n
	return e.h
}

// StateConcurrent implements Engine: h is served only when it is
// current — every insert grows the log past n, and Compacted keeps the
// two in step — so a stale or absent h sends the caller to State under
// the exclusive lock.
func (e *UndoEngine) StateConcurrent() (spec.State, bool) {
	if e.h == nil || e.n != e.log.Len() {
		return nil, false
	}
	return e.h, true
}

// Folded implements Engine: the fold cursor.
func (e *UndoEngine) Folded() (int, bool) { return e.n, e.h != nil }

// ReplayEngine is line 14–17 of Algorithm 1 verbatim: every query
// replays the whole update list from the initial state. O(|log|) per
// query, O(1) per insert.
type ReplayEngine struct {
	adt spec.UQADT
	log *Log
}

// NewReplayEngine returns the paper's literal query engine.
func NewReplayEngine() *ReplayEngine { return &ReplayEngine{} }

// Name implements Engine.
func (*ReplayEngine) Name() string { return "replay" }

// Bind implements Engine.
func (e *ReplayEngine) Bind(adt spec.UQADT, log *Log) { e.adt, e.log = adt, log }

// Inserted implements Engine.
func (*ReplayEngine) Inserted(int) {}

// Compacted implements Engine.
func (*ReplayEngine) Compacted(int) {}

// Folded implements Engine: a replay retains nothing.
func (*ReplayEngine) Folded() (int, bool) { return 0, false }

// State implements Engine.
func (e *ReplayEngine) State() spec.State { return e.log.Replay() }

// StateConcurrent implements Engine: a replay builds a fresh state
// from the (reader-locked) log and touches no engine state, so it is
// always safe to run concurrently.
func (e *ReplayEngine) StateConcurrent() (spec.State, bool) { return e.log.Replay(), true }

// DefaultMaxMarks bounds the number of retained checkpoints when
// NewCheckpointEngine is used; NewCheckpointEngineCapped overrides it.
const DefaultMaxMarks = 64

// CheckpointEngine keeps a snapshot of the state every interval
// entries. A query replays only from the last snapshot; a late
// insertion invalidates the snapshots after its position (the
// "intermediate states are re-computed only if very late messages
// arrive" optimization of §VII-C). O(interval + staleness) per query.
//
// The number of retained snapshots is capped: when the cap is reached
// the oldest mark is dropped and its slot reused, so the engine's
// clone-retention cost is bounded by maxMarks regardless of log
// growth. A very late insert landing before the oldest retained mark
// then rebuilds from the log base — the price of the bound.
type CheckpointEngine struct {
	adt      spec.UQADT
	log      *Log
	interval int
	maxMarks int
	// marks[i] is the snapshot after applying the first marks[i].n live
	// entries on top of the base.
	marks []checkpoint
}

type checkpoint struct {
	n     int
	state spec.State
}

// NewCheckpointEngine returns a snapshotting engine; interval must be
// positive (a typical value is 64). At most DefaultMaxMarks snapshots
// are retained.
func NewCheckpointEngine(interval int) *CheckpointEngine {
	return NewCheckpointEngineCapped(interval, DefaultMaxMarks)
}

// NewCheckpointEngineCapped returns a snapshotting engine retaining at
// most maxMarks snapshots; interval and maxMarks must be positive.
func NewCheckpointEngineCapped(interval, maxMarks int) *CheckpointEngine {
	if interval <= 0 {
		panic("core: checkpoint interval must be positive")
	}
	if maxMarks <= 0 {
		panic("core: checkpoint mark cap must be positive")
	}
	return &CheckpointEngine{interval: interval, maxMarks: maxMarks}
}

// Name implements Engine.
func (e *CheckpointEngine) Name() string {
	return fmt.Sprintf("checkpoint(%d)", e.interval)
}

// Bind implements Engine. The mark slice's storage is reused across
// rebinds (compaction rebinds after every fold).
func (e *CheckpointEngine) Bind(adt spec.UQADT, log *Log) {
	e.adt, e.log = adt, log
	e.marks = e.marks[:0]
}

// Inserted implements Engine: snapshots at or after the insertion
// point are stale.
func (e *CheckpointEngine) Inserted(at int) {
	keep := len(e.marks)
	for keep > 0 && e.marks[keep-1].n > at {
		keep--
	}
	e.marks = e.marks[:keep]
}

// Compacted implements Engine: the marks count entries from the old
// base, so they are dropped.
func (e *CheckpointEngine) Compacted(int) { e.marks = e.marks[:0] }

// Folded implements Engine: the entries under the last mark.
func (e *CheckpointEngine) Folded() (int, bool) {
	if len(e.marks) == 0 {
		return 0, false
	}
	return e.marks[len(e.marks)-1].n, true
}

// record appends a snapshot, dropping the oldest mark when the cap is
// reached (the slot storage is reused in place).
func (e *CheckpointEngine) record(c checkpoint) {
	if len(e.marks) == e.maxMarks {
		copy(e.marks, e.marks[1:])
		e.marks[len(e.marks)-1] = c
		return
	}
	e.marks = append(e.marks, c)
}

// marksDue reports whether replaying the tail past the last mark
// would record a new snapshot — i.e. some multiple of interval lies
// past the last mark within the live entries. It is the single
// predicate deciding whether replay(true) mutates the engine.
func (e *CheckpointEngine) marksDue() bool {
	start := 0
	if len(e.marks) > 0 {
		start = e.marks[len(e.marks)-1].n
	}
	return (len(e.log.Entries())/e.interval)*e.interval > start
}

// replay builds the current state from the last mark (or the base).
// With record set it snapshots along the way; without it the call is
// read-only, and a fully caught-up engine shares the last mark's
// state directly instead of cloning (callers treat states as
// read-only, so sharing is safe — the undo engine does the same).
func (e *CheckpointEngine) replay(record bool) spec.State {
	entries := e.log.Entries()
	start := 0
	var s spec.State
	if len(e.marks) > 0 {
		last := e.marks[len(e.marks)-1]
		start = last.n
		if !record && start == len(entries) {
			return last.state
		}
		s = e.adt.Clone(last.state)
	} else {
		s = e.log.BaseState()
	}
	for i := start; i < len(entries); i++ {
		s = e.adt.Apply(s, entries[i].U)
		applied := i + 1
		if record && applied%e.interval == 0 && (len(e.marks) == 0 || e.marks[len(e.marks)-1].n < applied) {
			e.record(checkpoint{n: applied, state: e.adt.Clone(s)})
		}
	}
	return s
}

// State implements Engine.
func (e *CheckpointEngine) State() spec.State { return e.replay(true) }

// StateConcurrent implements Engine: safe only when the replay would
// not record a new snapshot, because recording mutates the engine.
func (e *CheckpointEngine) StateConcurrent() (spec.State, bool) {
	if e.marksDue() {
		return nil, false
	}
	return e.replay(false), true
}

var (
	_ Engine = (*UndoEngine)(nil)
	_ Engine = (*ReplayEngine)(nil)
	_ Engine = (*CheckpointEngine)(nil)
)
