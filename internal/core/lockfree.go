package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// This file is the opt-in lock-free intake (Config.LockFree): the write
// step of replica.go — stamp, land in the own log, encode, stability/GC
// tail, broadcast after the unlock — run on a batch of announced updates
// instead of on one, in the style of the consensus-based universal
// constructions (Herlihy's LFUniversal; Kogan–Petrank helping): helping
// changes who runs the step, not what the step is. Without it every
// Update takes r.mu itself, so concurrent in-process writers contend on
// lock handoffs; with it
//
//	announce   writers claim a cell in a segmented intake list with one
//	           fetch-add, write their update, and publish it with one
//	           atomic store — never blocking on another writer;
//	drain      whichever writer acquires the drain token runs the step
//	           for EVERY published cell — its own and everyone else's
//	           (the helping that makes the append bounded-wait): one
//	           batched clock reservation (clock.AtomicLamport.TickN),
//	           one exclusive hold in which each cell goes through
//	           issueLocked and the batch through one tailLocked, one
//	           payload allocation and one broadcast for the whole batch,
//	           frames issued in stamp order so the per-origin FIFO that
//	           stability GC relies on is preserved by construction;
//	retire     a fully drained segment is sealed and unlinked once its
//	           last writer has exited; its update references are
//	           dropped eagerly at drain time, and the segment itself is
//	           reclaimed by the runtime once the last announcer's
//	           reference dies — the exit counter is the epoch that
//	           makes unlinking safe.
//
// The drain-visit order defines the local serialization: a stalled
// writer that has claimed a cell but not yet published it delays
// nobody (its cell is skipped and picked up by a later drain); once
// published, its operation is completed by whichever writer drains
// next, even if the announcer never runs again.
//
// What differs from the default path, then, is the intake segment list
// in front of the step, the deferral it allows (a plain Update returns
// before its step has run; every read flushes first) and the wire shape:
// a drain broadcasts one run (codec.go) where the default path broadcasts
// one bare message, so a cluster runs one mode throughout.

// lfSegCells is the cell count of one intake segment. 64 bounds a
// drain batch's lock hold while keeping the fetch-add fast path hot
// for far longer than any realistic burst of concurrent writers.
const lfSegCells = 64

// lfSealed is stored into a retired segment's claim counter: any
// late claim (a writer that loaded the segment as tail, then slept
// across the segment's whole lifetime) overshoots and follows next —
// it can never land in a cell of a segment the drainer has finished
// with. Retired segments keep their next pointer for exactly this
// reason.
const lfSealed = uint32(1) << 30

// Cell lifecycle: empty (claimed or unclaimed, not yet published) →
// ready (update visible to the drainer) → done (the write step has run:
// stamped, in the log, broadcast issued).
const (
	lfEmpty uint32 = iota
	lfReady
	lfDone
)

// lfCell is one announce record: a writer publishes its update here
// and spins (helping via the drain token) until the drainer stores the
// assigned timestamp and flips the state to done.
type lfCell struct {
	state atomic.Uint32
	u     spec.Update
	ts    clock.Timestamp
	seg   *lfSegment
}

// lfSegment is a fixed block of announce cells. Segments form a
// CAS-appended linked list; claims hands out cell indexes with one
// fetch-add and overshoots into the next segment when full.
type lfSegment struct {
	claims atomic.Uint32
	// release counts segment exits: one per writer that has read its
	// timestamp back, plus one for the drainer's unlink. It only
	// instruments retirement (the runtime reclaims the memory); the
	// boundedness test asserts against it.
	release atomic.Uint32
	next    atomic.Pointer[lfSegment]
	// drained counts cells this segment has had folded; drainer-only,
	// guarded by the drain token. At lfSegCells the segment is inert
	// and can be unlinked as soon as a successor exists.
	drained int
	cells   [lfSegCells]lfCell
}

func newLFSegment() *lfSegment {
	s := &lfSegment{}
	for i := range s.cells {
		s.cells[i].seg = s
	}
	return s
}

// lfIntake is the per-replica lock-free ingestion engine.
type lfIntake struct {
	// drainMu is the drain token: TryLock-only on the hot path, so it
	// never queues a writer — whoever holds it folds everything
	// published, everyone else spins on their own cell.
	drainMu sync.Mutex
	tail    atomic.Pointer[lfSegment]
	// head is the oldest live segment; drainer-only, under drainMu.
	head *lfSegment

	appended atomic.Uint64
	drained  atomic.Uint64
	batches  atomic.Uint64
	maxBatch atomic.Uint64
	segments atomic.Uint64 // segments ever activated
	retired  atomic.Uint64 // segments sealed, unlinked and released

	// drainer scratch, guarded by drainMu: the cell batch and the run
	// under construction. Reused across batches so a drain's only
	// allocation is the payload the transport retains.
	cellbuf []*lfCell
	encbuf  []byte
}

func newLFIntake() *lfIntake {
	lf := &lfIntake{}
	s := newLFSegment()
	lf.segments.Store(1)
	lf.tail.Store(s)
	lf.head = s
	return lf
}

// claim hands the writer a cell in the current tail segment (growing
// the list when full), writes the update and publishes it. The claim
// is one fetch-add; the publish is one atomic store — the announce
// step never takes a lock and never waits for another writer.
func (lf *lfIntake) claim(u spec.Update) *lfCell {
	for {
		s := lf.tail.Load()
		i := s.claims.Add(1) - 1
		if i < lfSegCells {
			c := &s.cells[i]
			c.u = u
			c.state.Store(lfReady)
			lf.appended.Add(1)
			return c
		}
		// Segment exhausted: install a successor (first overshooter
		// wins the CAS, the rest adopt it) and move the tail forward.
		next := s.next.Load()
		if next == nil {
			ns := newLFSegment()
			if s.next.CompareAndSwap(nil, ns) {
				lf.segments.Add(1)
				next = ns
			} else {
				next = s.next.Load()
			}
		}
		lf.tail.CompareAndSwap(s, next)
	}
}

// exit records that a writer (or the drainer's unlink) is finished
// with the segment; the last exit retires it.
func (lf *lfIntake) exit(s *lfSegment) {
	if s.release.Add(1) == lfSegCells+1 {
		lf.retired.Add(1)
	}
}

// lfDrainEvery is the deferred-drain threshold: an announcing writer
// triggers a drain only once this many updates are pending, so drain
// batches reach the threshold regardless of how many writers there are
// — the amortization does not depend on the scheduler interleaving
// announcers. Reads flush the intake first (read-your-writes), so the
// deferral is never observable through a query; it bounds only how
// long a folded-but-unread update may sit unbroadcast between
// operations.
const lfDrainEvery = 128

// updateLockFreeAsync is the plain-Update hot path of the lock-free
// engine: announce and return. The announce is one fetch-add, one
// store and two counter bumps — no lock, no wait on any other writer.
// The operation is completed (stamped, inserted, broadcast) by
// whichever operation next runs a drain: the threshold trigger below,
// a session writer's synchronous fold, or the flush that every read
// path performs before serving.
func (r *Replica) updateLockFreeAsync(u spec.Update) {
	lf := r.lf
	c := lf.claim(u)
	lf.exit(c.seg)
	if lf.appended.Load()-lf.drained.Load() >= lfDrainEvery && lf.drainMu.TryLock() {
		r.drainIntake()
		lf.drainMu.Unlock()
	}
}

// updateLockFree is the synchronous writer path (UpdateTimestamped —
// sessions need the assigned stamp back): announce, then help-or-spin
// until the own cell is done. The loop always retries the drain token,
// so a writer whose cell was published just after a drain's scan
// completes its own fold — no lost wakeup, and the wait is bounded by
// one drain batch.
func (r *Replica) updateLockFree(u spec.Update) clock.Timestamp {
	lf := r.lf
	c := lf.claim(u)
	for c.state.Load() != lfDone {
		if lf.drainMu.TryLock() {
			r.drainIntake()
			lf.drainMu.Unlock()
			continue
		}
		runtime.Gosched()
	}
	ts := c.ts
	lf.exit(c.seg)
	return ts
}

// flushIntake folds every announced update into the log and broadcasts
// it. All read paths call it before serving, which is what keeps the
// deferred drain invisible: a query observes everything its process
// announced before it (read-your-writes), and by extension everything
// any local writer announced before the flush began. No-op without the
// intake and on an empty one (two atomic loads).
func (r *Replica) flushIntake() {
	lf := r.lf
	if lf == nil {
		return
	}
	for lf.appended.Load() != lf.drained.Load() {
		lf.drainMu.Lock()
		r.drainIntake()
		lf.drainMu.Unlock()
		if lf.appended.Load() != lf.drained.Load() {
			// A writer is mid-announce (cell claimed, publish or
			// counter bump still in flight); let it finish.
			runtime.Gosched()
		}
	}
}

// FlushIntake folds and broadcasts everything announced so far; the
// harness layer calls it on quiesce (Settle) so deferred drains never
// hold back convergence.
func (r *Replica) FlushIntake() { r.flushIntake() }

// drainIntake runs the write step for every published cell. Caller holds
// the drain token (lf.drainMu).
//
// Collect: the ready cells in segment order — the drain-visit order IS
// the serialization the timestamps will encode. Issue: r.mu is held once
// for the whole batch; one TickN reserves the stamp range, each cell goes
// through issueLocked (landed in the log, recorded) and is appended to the
// run, and the batch goes through one tailLocked. Broadcast, outside r.mu:
// the whole batch as ONE run — one payload allocation, one mailbox
// envelope per peer, decoded and merged under one lock hold at each
// receiver (handleBatch) — then each cell flips to done. Messages inside
// the run are in stamp order and a single token holder issues the runs
// sequentially, so the per-origin FIFO that stability GC relies on holds
// by construction. Finally fully drained segments are sealed and unlinked.
func (r *Replica) drainIntake() int {
	lf := r.lf
	cells := lf.cellbuf[:0]
	for s := lf.head; s != nil; s = s.next.Load() {
		claimed := s.claims.Load()
		if claimed > lfSegCells {
			claimed = lfSegCells
		}
		for i := uint32(0); i < claimed; i++ {
			c := &s.cells[i]
			if c.state.Load() == lfReady {
				cells = append(cells, c)
			}
		}
	}
	if len(cells) == 0 {
		lf.cellbuf = cells
		return 0
	}

	k := uint64(len(cells))
	enc := appendRunHeader(lf.encbuf[:0], len(cells))
	r.mu.Lock()
	hi := r.clk.TickN(k)
	lo := hi - k + 1
	for b, c := range cells {
		c.ts = clock.Timestamp{Clock: lo + uint64(b), Proc: r.id}
		r.issueLocked(c.ts, c.u)
		enc = mustEncode(r.wire.appendFramed(enc, c.ts, c.u))
		c.seg.drained++
	}
	r.tailLocked(clock.Timestamp{Clock: hi, Proc: r.id}, len(cells))
	r.mu.Unlock()

	// One allocation and one broadcast for the whole batch; the
	// transport retains the frame until every peer has decoded it.
	buf := make([]byte, len(enc))
	copy(buf, enc)
	r.net.Broadcast(r.id, buf)
	for _, c := range cells {
		c.u = nil // drop the update reference as soon as it is folded
		c.state.Store(lfDone)
	}

	// Seal and unlink fully drained segments. A sealed claim counter
	// bounces any late claimer into next (kept intact for that walk);
	// the exit counter retires the segment once its last writer left.
	for s := lf.head; s.drained == lfSegCells; {
		next := s.next.Load()
		if next == nil {
			break
		}
		s.claims.Store(lfSealed)
		lf.head = next
		lf.exit(s)
		s = next
	}

	lf.cellbuf = cells[:0]
	lf.encbuf = enc[:0]
	lf.drained.Add(k)
	lf.batches.Add(1)
	for {
		cur := lf.maxBatch.Load()
		if k <= cur || lf.maxBatch.CompareAndSwap(cur, k) {
			break
		}
	}
	return int(k)
}

// handleBatch delivers a peer drain's run: decoded as a whole, then merged
// into the log under ONE lock hold (mergeLocked), and the stability/GC
// tail runs once per run — the receiver-side mirror of the drain's
// sender-side amortization. Feeding the tail only the run's last (highest)
// stamp is the same direct observation the per-message path makes: stamps
// within a run strictly increase, so the last one is the sender's reached
// clock.
func (r *Replica) handleBatch(from int, payload []byte) {
	batch, err := r.wire.decodeRun(payload)
	if err != nil {
		panic(r.badPayload(from, err))
	}
	if len(batch) == 0 {
		return
	}
	last := batch[len(batch)-1].TS
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log.SortEntries(batch)
	r.mergeLocked(batch)
	r.tailLocked(last, len(batch))
}

// IntakeStats reports the lock-free intake's counters; zero when the
// replica has no intake. LiveSegments is the current announce
// list length (head to tail) — the reclamation boundedness test
// asserts it returns to a constant after quiesce, however many
// segments a run burned through.
type IntakeStats struct {
	// Appended counts announced updates, Drained folded ones; after
	// every Update call has returned the two are equal.
	Appended uint64
	Drained  uint64
	// Batches counts drain passes that folded at least one cell;
	// MaxBatch is the largest single fold (>1 means writers were
	// helped: their operations completed under someone else's token).
	Batches  uint64
	MaxBatch uint64
	// Segments counts segments ever activated, Retired those sealed
	// and unlinked after their last announcer exited.
	Segments uint64
	Retired  uint64
	// LiveSegments is the current length of the announce list.
	LiveSegments int
}

// IntakeStats snapshots the intake counters (see IntakeStats type).
func (r *Replica) IntakeStats() IntakeStats {
	if r.lf == nil {
		return IntakeStats{}
	}
	lf := r.lf
	st := IntakeStats{
		Appended: lf.appended.Load(),
		Drained:  lf.drained.Load(),
		Batches:  lf.batches.Load(),
		MaxBatch: lf.maxBatch.Load(),
		Segments: lf.segments.Load(),
		Retired:  lf.retired.Load(),
	}
	lf.drainMu.Lock()
	for s := lf.head; s != nil; s = s.next.Load() {
		st.LiveSegments++
	}
	lf.drainMu.Unlock()
	return st
}

// LockFree reports whether the replica ingests updates through the
// lock-free intake.
func (r *Replica) LockFree() bool { return r.lf != nil }
