package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"updatec/internal/clock"
	"updatec/internal/spec"
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
// or, end to end, r.SyncFrom(donor). The unit of a pull is the process
// (shardGen), a plain Replica being the one-shard case: the digest
// summarizes every shard, the donor answers at one cut of all its shards,
// and the requester routes the answer by its own table, so processes
// repair each other whatever their shard counts. SyncFrom and the
// ShardedReplica's wire exchange (wiresync.go) are entry points to that
// one digest → answer → land.
//
// The answer is a run (codec.go) and lands as one sorted merge per shard
// (Log.MergeSorted): no broadcast, no stability peer-observation (the
// FIFO argument does not hold for sync-transferred entries), duplicates
// dropped and counted. Logs only grow and inserts are idempotent, so one
// all-pairs round of pulls after a heal makes every replica's update set
// the union of what the group held. When the donor has compacted past
// the requester's horizon the missing prefix no longer exists as
// entries, and the donor answers with one snapshot of the process folded
// at its horizon H instead: it holds every update at or below H, and the
// requester's bases fold a prefix of that.

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

// Digest summarizes what a process holds, per origin, for an
// anti-entropy exchange.
type Digest struct {
	// Base is the process horizon H (shardGen.horizonsLocked): the
	// process holds every update with clock ≤ Base, folded or live, so
	// the donor need not (and cannot be asked to) resend it.
	Base uint64
	// Origins[j] summarizes the live entries above Base originated by
	// process j, over every shard.
	Origins []OriginDigest
}

// mix64 is the splitmix64 finalizer; a rung's set hash is the wrapping
// sum of mix64 over entry clocks, which is order-independent, so neither
// insertion interleavings nor the split of an origin's entries over
// shards matter.
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
// entries of origin j with a clock above base, in every log: Count and
// Hash are overwritten, the clocks (ascending) are the caller's. Entries
// above an origin's top rung are counted in above[j]. One pass per log:
// its entries ascend by clock, so each origin's rung cursor only moves
// up; each entry lands in its own rung's bucket, and the buckets become
// cumulative once every log is in.
func tallyLadders(logs [][]Entry, base uint64, ladders []OriginDigest) (above []uint64) {
	above = make([]uint64, len(ladders))
	cur := make([]int, len(ladders))
	for _, od := range ladders {
		for i := range od {
			od[i].Count, od[i].Hash = 0, 0
		}
	}
	for _, entries := range logs {
		clear(cur)
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
	}
	for _, od := range ladders {
		for i := 1; i < len(od); i++ {
			od[i].Count += od[i-1].Count
			od[i].Hash += od[i-1].Hash
		}
	}
	return above
}

// shardGen is one routing generation of a process (process.gen): its
// shards under one table, the unit a pull digests, answers and lands, a
// resize moves and the causal gate covers. A resize builds a fresh one;
// a published generation never changes.
type shardGen struct {
	epoch  int
	shards []*Replica
	// part routes updates and splits bases; nil, or one shard, puts
	// everything in shard 0.
	part spec.Partitionable
}

// alone is the replica as a one-shard process, the unit of its own sync
// methods (a ShardedReplica's shard pulls through the ShardedReplica).
func (r *Replica) alone() *shardGen { return &shardGen{shards: []*Replica{r}} }

// each applies f to every shard's lock, in shard order: the lock order
// of every path that holds several.
func (g *shardGen) each(f func(*sync.RWMutex)) {
	for _, sh := range g.shards {
		f(&sh.mu)
	}
}

// keyed reports whether updates spread over several shards by key.
func (g *shardGen) keyed() bool { return g.part != nil && len(g.shards) > 1 }

// owner returns the shard that owns u under this table.
func (g *shardGen) owner(u spec.Update) int {
	if !g.keyed() {
		return 0
	}
	return routeKey(g.part.UpdateKey(u), len(g.shards))
}

// split buckets entries by owning shard, each bucket in their order.
func (g *shardGen) split(entries []Entry) [][]Entry {
	shares := make([][]Entry, len(g.shards))
	if !g.keyed() {
		shares[0] = entries
		return shares
	}
	for _, e := range entries {
		s := g.owner(e.U)
		shares[s] = append(shares[s], e)
	}
	return shares
}

// splitBase splits a folded base, which it consumes, into the key
// components each shard owns (nil where it owns none); nil when the
// shards are not keyed, and shard 0 takes the base whole.
func (g *shardGen) splitBase(base spec.State) []spec.State {
	if base == nil || !g.keyed() {
		return nil
	}
	bases := make([]spec.State, len(g.shards))
	for s := range bases {
		bases[s], _ = g.part.ExtractRange(base, func(key string) bool { return routeKey(key, len(bases)) == s })
	}
	return bases
}

// live returns every shard's live entries, unmasked. Caller holds every
// shard's lock (either half).
func (g *shardGen) live() [][]Entry {
	logs := make([][]Entry, len(g.shards))
	for s, sh := range g.shards {
		logs[s] = sh.log.unmasked()
	}
	return logs
}

// horizonsLocked returns the process's stability horizon and the
// highest base clock of its shards; the larger is the process horizon H.
// The process holds every update up to H in the shard that owns its key:
// stability puts it there, and a base above the stability horizon was
// adopted by a pull, which lands every shard or fails. A masking log
// never compacts, so it gets no stability horizon. Caller holds every
// shard's lock (either half).
func (g *shardGen) horizonsLocked() (stable, bases uint64) {
	for _, sh := range g.shards {
		if _, ts := sh.log.Base(); ts.Clock > bases {
			bases = ts.Clock
		}
	}
	if r0 := g.shards[0]; r0.stab != nil && r0.log.mask == nil {
		stable = r0.stab.Horizon()
	}
	return stable, bases
}

// digest summarizes the process for a pull under every shard's read lock.
func (g *shardGen) digest() Digest {
	g.each((*sync.RWMutex).RLock)
	defer g.each((*sync.RWMutex).RUnlock)
	n := g.shards[0].n
	d := Digest{Origins: make([]OriginDigest, n)}
	d.Base = max(g.horizonsLocked())
	logs := g.live()
	// Each log ascends by clock, so an origin's last entry in it carries
	// the origin's top there.
	top := make([]uint64, n)
	for _, entries := range logs {
		for i := range entries {
			if ts := entries[i].TS; ts.Proc >= 0 && ts.Proc < n && ts.Clock > d.Base && ts.Clock > top[ts.Proc] {
				top[ts.Proc] = ts.Clock
			}
		}
	}
	for j, c := range top {
		if c > 0 {
			d.Origins[j] = newLadder(d.Base, c)
		}
	}
	tallyLadders(logs, d.Base, d.Origins)
	return d
}

// runLocked appends to out, as one run, the entries a peer with digest d
// is missing, or returns out unchanged when it is missing nothing this
// donor can tell. Per origin the donor sends what it holds above the
// highest rung of the peer's ladder at which its own cumulative count and
// hash agree (see OriginDigest), and everything above d.Base when no rung
// does — a superset of the missing set is always correct, since the
// receiver deduplicates. The entries go shard by shard, each shard's in
// log order. Caller holds every shard's lock (either half), and no shard
// is compacted above d.Base.
func (g *shardGen) runLocked(out []byte, d Digest) ([]byte, error) {
	n := g.shards[0].n
	logs := g.live()
	// Pass 1: the donor's own cumulative view at the peer's rung clocks
	// (a digest narrower than n leaves the other origins no ladder), and
	// from it the clock above which each origin is sent.
	mine := make([]OriginDigest, n)
	for j := range mine {
		if j < len(d.Origins) {
			mine[j] = append(OriginDigest(nil), d.Origins[j]...)
		}
	}
	above := tallyLadders(logs, d.Base, mine)
	cut := make([]uint64, n)
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
		return out, nil
	}
	// Pass 2: encode the selected entries into a local buffer (r.enc needs
	// the exclusive lock; the read half keeps the donor's queries flowing).
	out = appendRunHeader(slices.Grow(out, 16+int(total)*16), int(total))
	for _, entries := range logs {
		for i := range entries {
			ts := entries[i].TS
			if ts.Clock <= d.Base || ts.Proc < 0 || ts.Proc >= n || ts.Clock <= cut[ts.Proc] {
				continue
			}
			var err error
			if out, err = g.shards[0].wire.appendFramed(out, ts, entries[i].U); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// foldLocked is the process folded at horizon h, which is at or above
// every shard's base clock: each shard's base brought to h by folding its
// live entries up to h into a clone (what compact(h) does), the bases
// merged key by key (nil when nothing is folded), stamped (h, MaxInt);
// the process fingerprint less the live entries above h as the base's
// count and sum; and those live entries, in log order. Caller holds every
// shard's lock (either half).
func (g *shardGen) foldLocked(h uint64) (sd snapshotData) {
	r0 := g.shards[0]
	var fp Fingerprint
	for _, sh := range g.shards {
		entries := sh.log.unmasked()
		cut, _ := slices.BinarySearchFunc(entries, h, func(e Entry, h uint64) int { return cmp.Compare(e.TS.Clock, h+1) })
		shfp := sh.log.Fingerprint()
		fp.Count += shfp.Count - uint64(len(entries)-cut)
		fp.Sum += shfp.Sum
		for _, e := range entries[cut:] {
			fp.Sum -= entryHash(e.TS)
		}
		sd.entries = append(sd.entries, entries[cut:]...)
		if b, _ := sh.log.Base(); b == nil && cut == 0 {
			continue
		}
		folded := sh.log.BaseState()
		for _, e := range entries[:cut] {
			folded = sh.adt.Apply(folded, e.U)
		}
		if sd.base == nil {
			sd.base = folded
		} else {
			sd.base = g.part.MergeInto(sd.base, folded)
		}
	}
	r0.log.SortEntries(sd.entries)
	sd.clock, sd.baseLen, sd.baseSum = r0.proc.clk.Now(), int(fp.Count), fp.Sum
	sd.baseTS = clock.Timestamp{Clock: h, Proc: math.MaxInt}
	return sd
}

// installLocked lands a snapshot sd on every shard, its base split into
// bases when the shards are keyed and its live entries into shares, and
// returns how many of each shard's share were new there. The base is
// adopted by every shard or by none: by all when each shard's own base
// folds a lower clock, each shard then holding its keys' components of it
// at sd's stamp, guarded as merged says (Log.merged). The base's count
// and sum cannot be split by key: shard 0 carries them and the other
// shards' bases carry 0, which sums to the process fingerprint. Caller
// holds every shard's exclusive lock.
func (g *shardGen) installLocked(sd snapshotData, bases []spec.State, shares [][]Entry, merged bool) []int {
	adopt := sd.base != nil
	for _, sh := range g.shards {
		if b, ts := sh.log.Base(); b != nil && ts.Clock >= sd.baseTS.Clock {
			adopt = false
		}
	}
	landed := make([]int, len(g.shards))
	for s, sh := range g.shards {
		share := sd
		share.entries = shares[s]
		switch {
		case !adopt || (s > 0 && bases == nil):
			share.base = nil
		case bases != nil:
			share.base = bases[s]
			if share.base == nil {
				share.base = sh.adt.Initial()
			}
			if s > 0 {
				share.baseLen, share.baseSum = 0, 0
			}
		}
		landed[s] = sh.installSnapshotLocked(share, merged)
	}
	return landed
}

// The modes of a donor's answer (a wire reply's first byte).
const (
	syncNone     byte = 0 // the requester is missing nothing
	syncEntries  byte = 1 // body is a run of entries
	syncSnapshot byte = 2 // body is a snapshot of the donor process
)

// answerLocked is the donor half: appended to out, the entries a peer
// with digest d is missing, or — when a shard has compacted past the
// peer's horizon and they no longer exist as entries — one snapshot of
// the process folded at its horizon H. Caller holds every shard's lock
// (either half).
func (g *shardGen) answerLocked(out []byte, d Digest) (mode byte, body []byte, err error) {
	if stable, bases := g.horizonsLocked(); bases > d.Base {
		sd := g.foldLocked(max(stable, bases))
		if body, err = g.shards[0].appendSnapshot(out, sd.baseLen, sd.base, sd.baseTS, sd.baseSum, sd.entries); err != nil {
			return 0, nil, fmt.Errorf("core: sync snapshot fallback: %w", err)
		}
		return syncSnapshot, body, nil
	}
	if body, err = g.runLocked(out, d); err != nil || len(body) == len(out) {
		return syncNone, nil, err
	}
	return syncEntries, body, nil
}

// pulled is a donor's answer decoded and split by the requester's
// routing table: each shard's share of the entries, or of a snapshot's
// live entries and — on keyed shards — of its base; and at causal
// consistency the donor's per-origin stamps as of the answer.
type pulled struct {
	mode       byte
	snap       snapshotData
	bases      []spec.State
	shares     [][]Entry
	held, seen clock.Vector
}

// decode is the requester half's first step: decode and split what a
// donor's answer produced, landing nothing. The routing table must not
// change until the landing (ShardedReplica holds routeMu's read half).
func (g *shardGen) decode(mode byte, body []byte) (p pulled, err error) {
	p.mode = mode
	switch mode {
	case syncNone:
		if len(body) != 0 {
			err = errors.New("core: sync reply carries a body after mode 0")
		}
	case syncEntries:
		if p.snap.entries, err = g.shards[0].wire.decodeRun(body); err != nil {
			err = fmt.Errorf("core: sync reply: %w", err)
		}
	case syncSnapshot:
		if p.snap, err = g.shards[0].parseSnapshot(body); err == nil {
			p.bases = g.splitBase(p.snap.base)
		}
	default:
		err = fmt.Errorf("core: unknown sync mode %d", mode)
	}
	p.shares = g.split(p.snap.entries)
	return p, err
}

// land is the requester half's second step: land a decoded answer under
// every shard's exclusive lock, reporting how many entries were new here.
// A donor replies in log order per shard, which is ours when the routing
// tables agree; anything else is sorted rather than trusted. At causal
// consistency it ends by raising the process's stamps to the donor's and
// releasing what that covers (process.raiseLocked).
func (g *shardGen) land(p pulled) (n int) {
	g.each((*sync.RWMutex).Lock)
	defer g.each((*sync.RWMutex).Unlock)
	landed := make([]int, len(g.shards))
	switch p.mode {
	case syncEntries:
		for s, sh := range g.shards {
			sh.log.SortEntries(p.shares[s])
			landed[s] = sh.mergeLocked(sh.log.aboveBase(p.shares[s]))
		}
	case syncSnapshot:
		landed = g.installLocked(p.snap, p.bases, p.shares, true)
	}
	for s, k := range landed {
		g.shards[s].syncApplied += uint64(k)
		n += k
	}
	if proc := g.shards[0].proc; proc.causal {
		proc.raiseLocked(g, p.held, p.seen)
	}
	return n
}

// landBytes decodes an answer whole, then lands it.
func (g *shardGen) landBytes(mode byte, body []byte) (int, error) {
	p, err := g.decode(mode, body)
	if err != nil {
		return 0, err
	}
	return g.land(p), nil
}

// pullProcess runs one pull from donor into req: digest, answer at one
// cut of the donor's shards under their read locks, decode, land.
func pullProcess(req, donor *shardGen) (int, error) {
	d := req.digest()
	donor.each((*sync.RWMutex).RLock)
	mode, body, err := donor.answerLocked(nil, d)
	var held, seen clock.Vector
	if req.shards[0].proc.causal {
		held, seen = donor.heldLocked().Clone(), donor.shards[0].proc.seen.Clone()
	}
	donor.each((*sync.RWMutex).RUnlock)
	if err != nil {
		return 0, err
	}
	p, err := req.decode(mode, body)
	if err != nil {
		return 0, err
	}
	p.held, p.seen = held, seen
	return req.land(p), nil
}

// Digest summarizes the replica's log for an anti-entropy pull.
func (r *Replica) Digest() Digest { return r.alone().digest() }

// SyncReply encodes the update suffix a peer with digest d is missing
// from this replica's log as one run (shardGen.runLocked); nil, nil
// when it is missing nothing this donor can tell. ErrCompacted means this
// donor's compaction horizon is above d.Base: part of what the peer is
// missing exists here only folded into state.
func (r *Replica) SyncReply(d Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, baseTS := r.log.Base(); baseTS.Clock > d.Base {
		return nil, ErrCompacted
	}
	return r.alone().runLocked(nil, d)
}

// ApplySync lands a SyncReply payload: decoded whole first — a malformed
// reply lands nothing — then merged under one lock hold (mergeLocked),
// skipping what the base already folds. Returns how many entries were
// new.
func (r *Replica) ApplySync(payload []byte) (int, error) {
	if len(payload) == 0 {
		return 0, nil
	}
	return r.alone().landBytes(syncEntries, payload)
}

// MergeSnapshot merges a donor's Snapshot into a replica that already
// holds state. The donor's base replaces this replica's own when it
// folds a higher clock (stability makes it a superset); the live entries
// of both above the adopted horizon merge, deduplicated. Returns how many
// of the donor's entries were new here.
func (r *Replica) MergeSnapshot(snap []byte) (int, error) {
	return r.alone().landBytes(syncSnapshot, snap)
}

// installSnapshotLocked rebuilds the log as the union of what the replica
// holds and a decoded snapshot — for Restore the replica holds nothing —
// and returns how many of the snapshot's live entries were new. The
// snapshot's base, when it has one, replaces the replica's: the caller
// has checked that it folds further (installLocked). merged is the guard
// it gets (Log.merged): true for a pull, whose later below-horizon
// arrivals are redeliveries of folded updates, false for Restore, whose
// base stays strict. Caller holds the exclusive lock.
func (r *Replica) installSnapshotLocked(sd snapshotData, merged bool) int {
	old := r.log
	nl := NewLog(r.adt)
	if old.mask != nil {
		nl.setMask(old.mask)
		nl.masked = old.masked
	}
	obase, obaseTS := old.Base()
	if sd.base != nil {
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
	r.proc.clk.Observe(sd.clock)
	if r.stab != nil {
		r.stab.ObserveSelf(r.proc.clk.Now())
	}
	r.engine.Bind(r.adt, r.log)
	return applied
}

// SyncFrom runs one complete anti-entropy pull from donor (pullProcess).
// Returns how many live entries were new here. The donor side holds only
// its read lock.
func (r *Replica) SyncFrom(donor *Replica) (int, error) {
	if donor == r {
		return 0, nil
	}
	return pullProcess(r.alone(), donor.alone())
}

// SyncFrom pulls what this replica is missing from peer, whatever either
// one's shard count (pullProcess). The answer is decoded and split before
// any shard lands, so a pull lands every shard or fails, and at its end
// this replica holds every update up to the peer's horizon — which the
// process horizon relies on (horizonsLocked). Returns the number of newly
// landed entries.
func (r *ShardedReplica) SyncFrom(peer *ShardedReplica) (int, error) {
	if peer == r {
		return 0, nil
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return pullProcess(r.gen.Load(), peer.gen.Load())
}
