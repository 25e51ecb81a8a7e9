package core

import (
	"errors"
	"fmt"

	"updatec/internal/clock"
)

// Anti-entropy log repair. The paper's convergence argument (§VI)
// assumes every update is eventually delivered to every correct
// process; reliable broadcast provides that on a connected network,
// but a long partition or an injected link fault leaves a replica
// missing an arbitrary suffix of its peers' logs, and a recovered
// crash missing everything sent while it was down. Rather than wait
// for transport-level redelivery — which replays every queued frame,
// duplicates included — a replica can *pull* exactly what it lacks
// from any peer:
//
//	digest  := r.Digest()            — what r holds, summarized
//	payload := donor.SyncReply(digest)
//	applied := r.ApplySync(payload)  — land the missing suffix
//
// or, end to end, r.SyncFrom(donor). The payload is a run (codec.go),
// and a reply lands as one sorted merge into the log (Log.MergeSorted, linear in the reply plus
// the suffix it displaces) with the semantics of resharding's Absorb:
// no broadcast, no stability peer-observation (the FIFO argument does
// not hold for sync-transferred entries), duplicates dropped and
// counted. Pulls are one-directional; a symmetric exchange is two
// pulls. Because logs only grow and inserts are idempotent, one
// all-pairs round of pulls
// after a heal makes every replica's update set the union of what the
// group held — the transport's queued originals then arrive as counted
// duplicates instead of divergence.
//
// When the donor has compacted past the requester's horizon the
// missing prefix no longer exists as entries; SyncReply reports
// ErrCompacted and the pull falls back to full state transfer (syncAnswer,
// syncLand), merging the donor's Snapshot with the requester's surviving
// live suffix (MergeSnapshot). Stability makes the fallback sound: the
// donor's base folds every update at or below its horizon, and the
// requester's own base — compacted at a strictly lower horizon, or it
// would not have hit ErrCompacted — is a prefix of that.

// ErrCompacted reports that a sync donor has garbage-collected part of
// the suffix the requester is missing; the requester must fall back to
// snapshot transfer (Replica.MergeSnapshot).
var ErrCompacted = errors.New("core: donor compacted past requester's digest base; use snapshot transfer")

// Rung is one cumulative summary of an origin's live entries: how many
// carry a clock at or below Clock, and an order-independent hash of
// those clocks.
type Rung struct {
	Clock uint64
	Count uint64
	Hash  uint64
}

// ladderRungs is how many rungs an origin's digest carries at most. With
// the spacing halving towards the top, the finest step is 1/2^15 of the
// origin's clock span, so a requester that diverges from the donor only
// near the top — the shape a partition heal or a dropped message leaves —
// is resolved to within a handful of entries by a digest of a few
// hundred bytes. It bounds a decoder's allocation too, so it is a
// constant, not an option.
const ladderRungs = 16

// OriginDigest summarizes one origin process's live entries in a log as
// a ladder of rungs in ascending clock order. The top (last) rung sits at
// the origin's highest live clock, so its Count and Hash cover everything
// held; the rungs below it sit at clocks spaced geometrically down from
// there — the gap to the top doubles rung by rung until it reaches half
// the span above the compaction horizon. A donor compares its own
// cumulative count and hash at each rung's clock: the highest rung that
// agrees proves both sides hold the same entries up to it, and only what
// the donor holds above it need travel. A requester that is ahead of the
// donor, or has a hole, therefore costs the duplicates between that rung
// and the top — at most about twice the clock depth of the deepest
// disagreement — instead of the origin's whole history. An origin with
// no live entries has an empty ladder.
type OriginDigest []Rung

// Digest summarizes what a replica's log holds, per origin, for an
// anti-entropy exchange.
type Digest struct {
	// Ver is the log's version (mutation counter) at digest time. It is
	// replica-local — two replicas' versions are not comparable — and
	// serves only to detect local movement between a caller's own
	// rounds.
	Ver uint64
	// Base is the clock of the compaction horizon: every update with
	// clock ≤ Base is folded into this replica's base state, so the
	// donor need not (and cannot be asked to) resend it.
	Base uint64
	// Origins[j] summarizes the live entries originated by process j.
	Origins []OriginDigest
}

// mix64 is the splitmix64 finalizer; a rung's set hash is the wrapping
// sum of mix64 over entry clocks, which is order-independent (insertion
// interleavings don't matter) and handles the multiplicity a resharded
// log can legitimately hold (equal (clock, proc) under different keys
// sums twice on both sides).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newLadder places the rungs for an origin whose highest live clock is
// top in a log compacted up to base: the counts are filled in by
// tallyLadders.
func newLadder(base, top uint64) OriginDigest {
	od := make(OriginDigest, 0, ladderRungs)
	for i := 1; i < ladderRungs; i++ {
		c := top - (top-base)>>i
		if len(od) == 0 || od[len(od)-1].Clock < c {
			od = append(od, Rung{Clock: c})
		}
	}
	if len(od) == 0 || od[len(od)-1].Clock < top {
		od = append(od, Rung{Clock: top})
	}
	return od
}

// tallyLadders makes every rung of ladders[j] cumulative over the
// entries of origin j with a clock above base: Count and Hash are
// overwritten, the clocks (ascending) are the caller's. Entries above an
// origin's top rung are counted in above[j]. One pass: entries ascend by
// clock, so each origin's rung cursor only moves up.
func tallyLadders(entries []Entry, base uint64, ladders []OriginDigest) (above []uint64) {
	above = make([]uint64, len(ladders))
	cur := make([]int, len(ladders))
	for _, od := range ladders {
		for i := range od {
			od[i].Count, od[i].Hash = 0, 0
		}
	}
	for i := range entries {
		ts := entries[i].TS
		if ts.Clock <= base || ts.Proc < 0 || ts.Proc >= len(ladders) {
			continue
		}
		od := ladders[ts.Proc]
		p := cur[ts.Proc]
		for p < len(od) && od[p].Clock < ts.Clock {
			p++
		}
		cur[ts.Proc] = p
		if p == len(od) {
			above[ts.Proc]++
			continue
		}
		od[p].Count++
		od[p].Hash += mix64(ts.Clock)
	}
	for _, od := range ladders {
		for i := 1; i < len(od); i++ {
			od[i].Count += od[i-1].Count
			od[i].Hash += od[i-1].Hash
		}
	}
	return above
}

// Digest summarizes the replica's log for an anti-entropy pull.
func (r *Replica) Digest() Digest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d := Digest{Ver: r.log.Version(), Origins: make([]OriginDigest, r.n)}
	_, baseTS := r.log.Base()
	d.Base = baseTS.Clock
	entries := r.log.unmasked()
	// Entries ascend by clock: an origin's last entry carries its top.
	top := make([]uint64, r.n)
	for i := range entries {
		if ts := entries[i].TS; ts.Proc >= 0 && ts.Proc < r.n && ts.Clock > d.Base {
			top[ts.Proc] = ts.Clock
		}
	}
	for j, c := range top {
		if c > 0 {
			d.Origins[j] = newLadder(d.Base, c)
		}
	}
	tallyLadders(entries, d.Base, d.Origins)
	return d
}

// SyncReply encodes the update suffix a peer with digest d is missing
// from this replica's log, as one run (codec.go) — the format of a
// snapshot's live suffix, so ApplySync decodes it with the same decoder. A
// nil, nil reply means the peer is missing nothing this donor can tell. Per
// origin the donor sends what it holds above the highest rung of the
// peer's ladder at which its own cumulative count and hash agree (see
// OriginDigest), and everything above d.Base when no rung does — a
// superset of the missing set is always correct, since the receiver
// deduplicates. ErrCompacted is returned when this donor's own compaction
// horizon is above d.Base: part of what the peer is missing exists here
// only folded into state.
func (r *Replica) SyncReply(d Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.syncReplyLocked(d)
}

// syncReplyLocked is SyncReply with the lock held (either half).
func (r *Replica) syncReplyLocked(d Digest) ([]byte, error) {
	_, baseTS := r.log.Base()
	if baseTS.Clock > d.Base {
		return nil, ErrCompacted
	}
	entries := r.log.unmasked()
	// Pass 1: the donor's own cumulative view at the peer's rung clocks
	// (a digest narrower than r.n leaves the other origins no ladder),
	// and from it the clock above which each origin is sent.
	mine := make([]OriginDigest, r.n)
	for j := range mine {
		if j < len(d.Origins) {
			mine[j] = append(OriginDigest(nil), d.Origins[j]...)
		}
	}
	above := tallyLadders(entries, d.Base, mine)
	cut := make([]uint64, r.n)
	total := uint64(0)
	for j, od := range mine {
		cut[j] = d.Base
		send := above[j]
		if len(od) > 0 {
			send += od[len(od)-1].Count
		}
		for i := len(od) - 1; i >= 0; i-- {
			if od[i] == d.Origins[j][i] {
				cut[j] = od[i].Clock
				send -= od[i].Count
				break
			}
		}
		total += send
	}
	if total == 0 {
		return nil, nil
	}
	// Pass 2: encode the selected entries. This is the repair path, not
	// the broadcast hot path, so the buffer is local (r.enc needs the
	// exclusive lock; holding only the read half keeps concurrent
	// queries flowing on the donor).
	out := appendRunHeader(make([]byte, 0, 16+total*16), int(total))
	for i := range entries {
		ts := entries[i].TS
		if ts.Clock <= d.Base || ts.Proc < 0 || ts.Proc >= r.n || ts.Clock <= cut[ts.Proc] {
			continue
		}
		var err error
		if out, err = r.wire.appendFramed(out, ts, entries[i].U); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ApplySync lands a SyncReply payload. The whole payload is decoded and
// validated first — a malformed reply lands nothing — and the entries
// then merge into the log under one lock hold (mergeLocked): no
// broadcast, no stability peer-observation, duplicates dropped and
// counted, one engine notification. Returns how many entries were
// actually new. Frames at or below this replica's own compaction horizon
// are skipped (they are already folded into the base; stability
// guarantees they were delivered before compaction).
func (r *Replica) ApplySync(payload []byte) (int, error) {
	if len(payload) == 0 {
		return 0, nil
	}
	return r.syncLand(syncEntries, payload)
}

// MergeSnapshot merges a donor's Snapshot into a replica that already
// holds state — the ErrCompacted fallback of a pull, and the general
// recovery move when a donor has GC'd past what a rejoining replica
// missed. The donor's base replaces this replica's own (stability makes
// it a superset: both bases fold downward-closed sets of delivered
// updates, and the donor's horizon is strictly higher or SyncReply
// would not have refused); the new log is then two merges — this
// replica's live entries above the donor's horizon, and the donor's live
// entries on top, deduplicated. Returns how many of the donor's entries
// were new here.
func (r *Replica) MergeSnapshot(snap []byte) (int, error) {
	return r.syncLand(syncSnapshot, snap)
}

// installSnapshotLocked rebuilds the log as the union of what the replica
// holds and a decoded snapshot — for Restore the replica holds nothing —
// and returns how many of the snapshot's live entries were new. merged is
// the guard an adopted snapshot base gets (Log.merged): true for
// MergeSnapshot, whose later below-horizon arrivals are redeliveries of
// folded updates, false for Restore, whose base stays strict. Caller holds
// the exclusive lock.
func (r *Replica) installSnapshotLocked(sd snapshotData, merged bool) int {
	old := r.log
	nl := NewLog(r.adt)
	if old.mask != nil {
		nl.setMask(old.mask)
		nl.masked = old.masked
	}
	// Keep whichever base folded further. A base's folded entries exist
	// nowhere else, so adopting the lower-horizon one would lose the
	// difference; the higher base is a superset of the lower (both fold
	// downward-closed sets of delivered updates — stability). On the
	// ErrCompacted path the donor's is higher by construction, but
	// MergeSnapshot is also a general recovery entry point.
	obase, obaseTS := old.Base()
	if sd.base != nil && (obase == nil || obaseTS.Clock < sd.baseTS.Clock) {
		nl.RestoreBase(sd.base, sd.baseTS, sd.baseLen, sd.baseSum)
		nl.merged = merged
	} else if obase != nil {
		nl.RestoreBase(obase, obaseTS, old.baseLen, old.baseSum())
		nl.merged = old.merged
	}
	// What either side held under the adopted base is folded into it.
	nl.MergeSorted(nl.aboveBase(old.unmasked()))
	nl.SortEntries(sd.entries)
	theirs := nl.aboveBase(sd.entries)
	for i := range theirs {
		r.observeOrigin(theirs[i].TS)
	}
	_, applied, _, dups := nl.MergeSorted(theirs)
	r.dupDrops += uint64(dups)
	// The log version must stay monotone across the swap: the state-key
	// memo, the query-output cache and the sharded merged-state cache
	// all treat the version as a mutation counter — a derivation cached
	// at one version stays valid while it is unchanged — so the new log
	// resumes counting above the old one.
	nl.version += old.version
	nl.purge()
	r.log = nl
	r.clk.Observe(sd.clock)
	if r.stab != nil {
		r.stab.ObserveSelf(r.clk.Now())
	}
	r.engine.Bind(r.adt, r.log)
	return applied
}

// The two halves of a pull. What travels between them is a mode and a
// body: in process SyncFrom passes them as values, across a socket
// WireSync frames them per shard.
const (
	syncNone     byte = 0 // the requester is missing nothing
	syncEntries  byte = 1 // body is a SyncReply run
	syncSnapshot byte = 2 // body is a Snapshot
)

// syncAnswer is the donor half: the entries a peer with digest d is
// missing, or — when this donor has compacted past the peer's horizon and
// they no longer exist as entries — its snapshot.
func (r *Replica) syncAnswer(d Digest) (mode byte, body []byte, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.syncAnswerLocked(d)
}

// syncAnswerLocked is syncAnswer with the lock held (either half).
func (r *Replica) syncAnswerLocked(d Digest) (mode byte, body []byte, err error) {
	body, err = r.syncReplyLocked(d)
	switch {
	case errors.Is(err, ErrCompacted):
		if body, err = r.snapshotLocked(); err != nil {
			return 0, nil, fmt.Errorf("core: sync snapshot fallback: %w", err)
		}
		return syncSnapshot, body, nil
	case err != nil:
		return 0, nil, err
	case body == nil:
		return syncNone, nil, nil
	}
	return syncEntries, body, nil
}

// pulled is a donor's syncAnswer decoded: the entries of a reply, or a
// snapshot, and at causal consistency the donor's per-origin stamps as
// of the answer.
type pulled struct {
	mode       byte
	entries    []Entry
	snap       snapshotData
	held, seen clock.Vector
}

// syncDecode is the requester half's first step: decode what a donor's
// syncAnswer produced, landing nothing.
func (r *Replica) syncDecode(mode byte, body []byte) (p pulled, err error) {
	p.mode = mode
	switch mode {
	case syncNone:
	case syncEntries:
		if p.entries, err = r.wire.decodeRun(body); err != nil {
			err = fmt.Errorf("core: sync reply: %w", err)
		}
	case syncSnapshot:
		p.snap, err = r.parseSnapshot(body)
	default:
		err = fmt.Errorf("core: unknown sync mode %d", mode)
	}
	return p, err
}

// land is the requester half's second step: land a decoded answer under
// one lock hold, reporting how many entries were new here. A donor
// replies in its log order, which is ours; anything else is sorted
// rather than trusted. At causal consistency the landing ends by raising
// this replica's per-origin stamps to the donor's (raiseLocked).
func (r *Replica) land(p pulled) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	switch p.mode {
	case syncEntries:
		r.log.SortEntries(p.entries)
		n = r.mergeLocked(r.log.aboveBase(p.entries))
	case syncSnapshot:
		n = r.installSnapshotLocked(p.snap, true)
	}
	r.syncApplied += uint64(n)
	if p.held != nil {
		r.raiseLocked(p.held, p.seen)
	}
	return n
}

// syncLand is the requester half: land what a donor's syncAnswer
// produced, reporting how many entries were new here.
func (r *Replica) syncLand(mode byte, body []byte) (int, error) {
	p, err := r.syncDecode(mode, body)
	if err != nil {
		return 0, err
	}
	return r.land(p), nil
}

// pullLocked is a pull up to its landing: donor answers digest d and r
// decodes the answer. The caller holds donor's lock (either half).
func (r *Replica) pullLocked(donor *Replica, d Digest) (pulled, error) {
	mode, body, err := donor.syncAnswerLocked(d)
	if err != nil {
		return pulled{}, err
	}
	p, err := r.syncDecode(mode, body)
	if err == nil && r.causal {
		p.held, p.seen = donor.originMax.Clone(), donor.seen.Clone()
	}
	return p, err
}

// SyncFrom runs one complete anti-entropy pull from donor: digest,
// reply, apply — falling back to snapshot transfer when the donor has
// compacted past this replica's horizon. Returns how many entries (or
// snapshot-carried updates) were new here. Both replicas stay fully
// available throughout: the donor side holds only its read lock.
func (r *Replica) SyncFrom(donor *Replica) (int, error) {
	if donor == r {
		return 0, nil
	}
	d := r.Digest()
	donor.mu.RLock()
	p, err := r.pullLocked(donor, d)
	donor.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	return r.land(p), nil
}

// SyncFrom pulls every shard's missing suffix from the corresponding
// shard of peer. Both replicas must be at the same shard count —
// cluster-level resizes keep counts uniform (crashed replicas are
// resized too; a crash suppresses delivery in the transport, not
// routing structure), so a mismatch means the caller is syncing across
// clusters or mid-resize, and the pull is refused rather than guessed
// at. Returns the total number of newly landed entries.
//
// A pull lands every shard or fails. The peer answers every shard at one
// cut, its shards' locks all held, and every answer is decoded before
// any lands. At that cut the peer holds, on every shard, every update of
// the shard's keys up to its highest base clock, so after the pull so
// does this replica — which is what a resize's one horizon relies on
// when a base adopted here sits above the process's stability horizon
// (resizeLocked).
func (r *ShardedReplica) SyncFrom(peer *ShardedReplica) (int, error) {
	if peer == r {
		return 0, nil
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	mine, theirs := r.gen.Load(), peer.gen.Load()
	if len(mine.shards) != len(theirs.shards) {
		return 0, fmt.Errorf("core: sync requires equal shard counts (have %d, peer has %d); resize to a common count first",
			len(mine.shards), len(theirs.shards))
	}
	ds := make([]Digest, len(mine.shards))
	for s, sh := range mine.shards {
		ds[s] = sh.Digest()
	}
	ps := make([]pulled, len(ds))
	var err error
	for _, sh := range theirs.shards {
		sh.mu.RLock()
	}
	for s, sh := range theirs.shards {
		if ps[s], err = mine.shards[s].pullLocked(sh, ds[s]); err != nil {
			err = fmt.Errorf("core: shard %d: %w", s, err)
			break
		}
	}
	for _, sh := range theirs.shards {
		sh.mu.RUnlock()
	}
	if err != nil {
		return 0, err
	}
	applied := 0
	for s, p := range ps {
		applied += mine.shards[s].land(p)
	}
	return applied, nil
}
