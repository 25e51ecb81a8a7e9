package core

// Gated visibility: causal convergence on Algorithm 1's log ("Extending
// Causal Consistency to any Object Defined by a Sequential
// Specification", Mostéfaoui–Perrin–Raynal, separates causal consistency
// from causal convergence — causal visibility plus one shared arbitration
// order). A process built with Config.Causal runs the same replicas with
// one rule at ingest: it broadcasts each update behind its dependency
// vector — per origin, the highest stamp the process holds when it stamps
// the update — and a peer's update lands only once the process covers
// that vector (per origin, the highest stamp any shard holds, or the
// process horizon). Until then it waits in the process's pending list.
// So every origin's updates land in its own order, every visible set is
// causally closed, and the state is the fold of the visible set in the
// log's timestamp order, a linear extension of happens-before: the
// replicas converge for every object. A released update lands in the
// shard that owns its key under the current table, so neither a
// cross-epoch arrival nor a Resize needs re-keying. Every step that
// changes visibility holds every shard's lock in shard order (writers
// take the writer token first), so a read under them sees one cut.
//
// What the gate does not give is causal consistency in general: the
// paper's Proposition 1 rules out a wait-free object that is both
// pipelined consistent and convergent, so a late arrival may still be
// ordered before updates a replica has already shown. For objects whose
// updates commute the fold order is unobservable and the run is causally
// consistent too — the arbitration-free class of "Arbitration-Free
// Consistency is Available (and Vice Versa)".
//
// Sync replies and snapshots carry no dependency vectors and land
// ungated: the donor's visible set and the receiver's are both causally
// closed, so their union is too. A pull then raises the receiver's
// per-origin stamps to the donor's (raiseLocked), which a masking log
// needs — the donor sends its winners, not the writes they masked, and a
// later broadcast may depend on one of those. A Restore'd replica learns
// the stamps folded into its base from its next pull.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// gatedEntry is a peer's update waiting for its dependencies.
type gatedEntry struct {
	Entry
	deps clock.Vector
}

// decodeDeps splits a causal broadcast into its dependency vector and the
// message behind it. The vector must have one entry per process, which is
// checked before anything is allocated for it.
func decodeDeps(payload []byte, n int) (clock.Vector, []byte, error) {
	if k, m := binary.Uvarint(payload); m <= 0 || k != uint64(n) {
		return nil, nil, fmt.Errorf("dependency vector: want %d entries", n)
	}
	deps, off, err := clock.DecodeVector(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("dependency vector: %w", err)
	}
	return deps, payload[off:], nil
}

// heldLocked returns, per origin, the highest stamp the process holds —
// with one shard, that shard's own vector. Caller holds every shard's
// lock (either half).
func (g *shardGen) heldLocked() clock.Vector {
	held := g.shards[0].originMax
	if len(g.shards) > 1 {
		held = held.Clone()
		for _, sh := range g.shards[1:] {
			held.Merge(sh.originMax)
		}
	}
	return held
}

// depsLocked is the dependency vector recorded with an operation
// (history.Event.Deps): per origin, how many of its updates are visible
// in the process at causal consistency; nil otherwise. Caller holds the
// replica's lock (either half), which every change to the counts holds.
func (r *Replica) depsLocked() []uint64 {
	if !r.proc.causal {
		return nil
	}
	return slices.Clone(r.proc.seen)
}

// writeGated is Replica.writeStep at causal consistency, under every
// shard's lock: each update leaves alone, a step of one behind what the
// process held without it. Not its coverage — a compaction horizon is no
// origin's stamp, and a receiver whose own horizon lags could wait for
// an origin to pass it indefinitely. Caller holds the writer token.
func (p *process) writeGated(r *Replica, us []spec.Update) clock.Timestamp {
	g := p.gen.Load()
	g.each((*sync.RWMutex).Lock)
	k := uint64(len(us))
	first := clock.Timestamp{Clock: r.proc.clk.TickN(k) - k + 1, Proc: r.id}
	payloads := make([][]byte, len(us))
	for i, u := range us {
		ts := clock.Timestamp{Clock: first.Clock + uint64(i), Proc: r.id}
		if r.rec != nil {
			r.rec.UpdateDeps(r.id, u, slices.Clone(p.seen))
		}
		p.seen[r.id]++
		r.enc = appendStepHeader(g.heldLocked().Encode(r.enc[:0]), ts, 1)
		r.insertLocked(ts, u)
		r.enc = mustEncode(r.wire.appendStepUpdate(r.enc, u))
		payloads[i] = bytes.Clone(r.enc)
		r.tailLocked(ts)
	}
	g.each((*sync.RWMutex).Unlock)
	for _, payload := range payloads {
		r.broadcast(1, payload)
	}
	return first
}

// gate is a peer's update at the process's gate, under every shard's
// lock: dropped or landed at once (admitLocked), releasing what it
// covers, or held in pending, which is kept sorted by stamp.
func (p *process) gate(e gatedEntry) {
	g := p.gen.Load()
	g.each((*sync.RWMutex).Lock)
	defer g.each((*sync.RWMutex).Unlock)
	if p.admitLocked(g, e, g.heldLocked(), max(g.horizonsLocked())) {
		p.releaseLocked(g)
		return
	}
	p.gated++
	i, _ := slices.BinarySearchFunc(p.pending, e.TS, func(q gatedEntry, ts clock.Timestamp) int {
		return q.TS.Compare(ts)
	})
	p.pending = slices.Insert(p.pending, i, e)
}

// admitLocked drops e as a duplicate when held or the process horizon h
// covers its own stamp (each origin's visible updates are a prefix of its
// stream), or lands it in the shard owning its key, raising held, when
// they cover its dependencies; it reports whether it did either.
func (p *process) admitLocked(g *shardGen, e gatedEntry, held clock.Vector, h uint64) bool {
	sh := g.shards[g.owner(e.U)]
	if e.TS.Clock <= max(held[e.TS.Proc], h) {
		sh.dupDrops++
		return true
	}
	for j, d := range e.deps {
		if d > max(held[j], h) {
			return false
		}
	}
	sh.insertLocked(e.TS, e.U)
	held.Observe(e.TS)
	p.seen[e.TS.Proc]++
	sh.tailLocked(e.TS)
	return true
}

// releaseLocked admits every pending update it can. A dependency carries
// a lower stamp than its dependent, so one pass in stamp order lands
// whole chains; the pass repeats while it admits anything, because a
// dependency on a compaction horizon is covered by a later stamp of its
// origin. Caller holds every shard's exclusive lock.
func (p *process) releaseLocked(g *shardGen) {
	for admitted := true; admitted && len(p.pending) > 0; {
		admitted = false
		held, h := g.heldLocked(), max(g.horizonsLocked())
		kept := p.pending[:0]
		for _, e := range p.pending {
			if p.admitLocked(g, e, held, h) {
				admitted = true
			} else {
				kept = append(kept, e)
			}
		}
		clear(p.pending[len(kept):])
		p.pending = kept
	}
}

// raiseLocked lifts every shard's per-origin stamps and the process's
// visible counts to a sync donor's (nil raises nothing), read under the
// lock hold that produced the reply just landed — the process now holds
// everything the donor held — and releases what that covers. Caller
// holds every shard's exclusive lock.
func (p *process) raiseLocked(g *shardGen, held, seen clock.Vector) {
	for _, sh := range g.shards {
		sh.originMax.Merge(held)
	}
	p.seen.Merge(seen)
	p.releaseLocked(g)
}
