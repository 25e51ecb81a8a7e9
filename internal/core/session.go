package core

import (
	"fmt"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// ShardedSession provides per-client *session guarantees* on top of
// update consistent replicas: read-your-writes and monotonic reads,
// preserved across failover from one replica to another. Update
// consistency is a convergence guarantee — it says nothing about which
// prefix of the update stream a given replica has seen at a given moment,
// so a client that switches replicas mid-session could observe a state
// missing updates it already saw (or issued). A session tracks, per
// originating process, the highest update timestamp the client has
// observed; a replica can serve the session only when its log covers
// that vector.
//
// The check is sound on FIFO transports: a process's update timestamps
// strictly increase, so "the replica's log contains an update of
// origin j with clock ≥ v[j]" implies it contains every update of j
// with clock ≤ v[j].
//
// Sessions keep operations wait-free: TryQuery never blocks — it
// reports a stale replica instead, and the client chooses to retry,
// switch replicas, or accept the stale read.
//
// A ShardedReplica runs one Lamport clock and log per shard, so the
// session tracks one observation vector per shard lane: an update is
// recorded in the lane of the shard that owns its key, a keyed query
// is checked against (and absorbs) only the owning shard's coverage,
// and a whole-state query requires every lane to be covered before the
// merged state is served. At one shard that is one vector checked by one
// Replica.SessionQuery — a covered read of a settled replica costs a raw
// read.
//
// The guarantees compose per key exactly like the construction itself:
// a covering replica's shard log contains everything the session
// observed on that shard, so keyed reads are monotonic per key and
// whole-state reads are monotonic overall. A ShardedSession is one
// client's state and is not safe for concurrent use by multiple
// goroutines (the replicas it speaks to are).
//
// A session's lanes are bound to the shard count it was opened at: a
// lane's vector describes observations about one key range, and a
// Resize re-partitions the ranges, so the lanes stop corresponding to
// anything. Using a session whose replica has since resized to a
// different shard count panics — open a new session after a resize. A
// grow/shrink cycle that lands back on the original count stays
// *sound* (routing is a pure function of key and shard count, so the
// lanes mean the same key ranges again, and coverage after a move
// never overstates what the replica holds) but not necessarily live:
// the moves rebuild coverage from the surviving entries, so coverage
// the session absorbed from since-compacted state can regress below
// the session's vector, and a whole-state TryQuery then reports stale
// until the affected origins issue again — possibly forever on a
// quiet cluster. Prefer reopening sessions after any resize.
type ShardedSession struct {
	r    *ShardedReplica
	vecs []clock.Vector
}

// NewShardedSession starts a session against the given sharded
// replica.
func NewShardedSession(r *ShardedReplica) *ShardedSession {
	g := r.gen.Load()
	s := &ShardedSession{r: r, vecs: make([]clock.Vector, len(g.shards))}
	for i := range s.vecs {
		s.vecs[i] = clock.NewVector(r.n)
	}
	return s
}

// lanes returns the current generation after checking it still matches
// the session's lane count. Caller holds routeMu's read half.
func (s *ShardedSession) lanes(g *shardGen) []*Replica {
	if len(g.shards) != len(s.vecs) {
		panic(fmt.Sprintf("core: session opened at %d shards used after a Resize to %d; open a new session",
			len(s.vecs), len(g.shards)))
	}
	return g.shards
}

// Replica returns the session's current sharded replica.
func (s *ShardedSession) Replica() *ShardedReplica { return s.r }

// Switch fails the session over to another sharded replica of the same
// cluster. The replica must have the same shard count (shard routing
// is a pure function of key and shard count, so lanes keep meaning the
// same key sets).
func (s *ShardedSession) Switch(r *ShardedReplica) {
	if len(r.gen.Load().shards) != len(s.vecs) {
		panic("core: ShardedSession.Switch requires an equal shard count")
	}
	s.r = r
}

// Update issues an update through the shard owning its key and folds
// the timestamp into that lane's vector (read-your-writes).
func (s *ShardedSession) Update(u spec.Update) {
	s.r.routeMu.RLock()
	defer s.r.routeMu.RUnlock()
	g := s.r.gen.Load()
	shards := s.lanes(g)
	sh := s.r.shardOfUpdate(g, u)
	ts := shards[sh].UpdateTimestamped(u)
	s.vecs[sh].Observe(ts)
}

// TryQuery evaluates the query if the replica covers the session's
// observations, without blocking. A keyed query involves only the
// owning shard; a whole-state query requires every shard lane to be
// covered and is then served through the merged-state cache.
func (s *ShardedSession) TryQuery(in spec.QueryInput) (out spec.QueryOutput, ok bool) {
	r := s.r
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	shards := s.lanes(g)
	if r.part == nil || len(shards) == 1 {
		return shards[0].SessionQuery(s.vecs[0], in)
	}
	if key, keyed := r.part.QueryKey(in); keyed {
		sh := routeKey(key, len(shards))
		return shards[sh].SessionQuery(s.vecs[sh], in)
	}
	// Whole-state query: check every lane, serve the merged state, then
	// absorb. Coverage only grows, so a lane checked early cannot
	// regress before the merged read; and absorbing AFTER the read is
	// what keeps the session sound under concurrent deliveries — every
	// update the merged output can show was delivered before the fold,
	// hence is below the coverage absorbed afterwards. (Absorbing first
	// would leave a window where an update delivered between absorb and
	// fold appears in the output without entering the session vector,
	// letting a later failover read it back out.) The absorb may
	// overshoot what the output actually showed; that is the safe
	// direction — it only makes later reads stricter.
	for sh, rep := range shards {
		if !rep.Covers(s.vecs[sh]) {
			return nil, false
		}
	}
	out = r.queryMerged(g, in)
	for sh, rep := range shards {
		rep.AbsorbCoverage(s.vecs[sh])
	}
	return out, true
}

// Covered reports whether the session's current replica covers every
// lane — i.e. whether a whole-state TryQuery would succeed right now.
// It does not advance the session vectors.
func (s *ShardedSession) Covered() bool {
	s.r.routeMu.RLock()
	defer s.r.routeMu.RUnlock()
	for sh, rep := range s.lanes(s.r.gen.Load()) {
		if !rep.Covers(s.vecs[sh]) {
			return false
		}
	}
	return true
}

// Coverage returns the replica's per-origin coverage vector: for each
// process j, a clock c such that the replica holds every update of j
// with clock ≤ c.
func (r *Replica) Coverage() clock.Vector {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cov := clock.NewVector(len(r.originMax))
	r.absorbLocked(cov)
	return cov
}

// Covers reports whether the replica's log (including its compacted
// prefix) contains every update the vector describes: for each origin
// j, all of j's updates with clock ≤ v[j]. The compacted base holds
// *every* update below the horizon clock, whatever its origin, so
// coverage per origin is max(originMax[j], horizon).
func (r *Replica) Covers(v clock.Vector) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.coveredLocked(v)
}

// AbsorbCoverage raises v, in place, to the replica's current
// coverage. Sessions use it to absorb observations without allocating
// a per-query coverage clone.
func (r *Replica) AbsorbCoverage(v clock.Vector) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.absorbLocked(v)
}

// coveredLocked is Covers with the lock already held (either half).
func (r *Replica) coveredLocked(v clock.Vector) bool {
	_, baseTS := r.log.Base()
	for j := range v {
		cov := r.originMax[j]
		if baseTS.Clock > cov {
			cov = baseTS.Clock
		}
		if v[j] > cov {
			return false
		}
	}
	return true
}

// absorbLocked raises v in place to the replica's coverage. Caller
// holds the lock (either half).
func (r *Replica) absorbLocked(v clock.Vector) {
	_, baseTS := r.log.Base()
	for j := range v {
		cov := r.originMax[j]
		if baseTS.Clock > cov {
			cov = baseTS.Clock
		}
		if cov > v[j] {
			v[j] = cov
		}
	}
}

// SessionQuery evaluates in if the replica covers v, absorbing the
// replica's coverage into v (in place) before serving; ok = false
// means the replica is stale for the vector and nothing was evaluated
// or absorbed.
//
// This is the session read path, and it IS Replica.Query's path
// (queryCovered) with the coverage check switched on: when neither
// recording nor GC needs the exclusive lock, the coverage check, the
// absorb, and the (cacheable) query all happen under one shared-lock
// acquisition — a covered session read of a settled replica is a
// version compare plus a cache hit, with no allocation, the same cost
// as a raw Query.
func (r *Replica) SessionQuery(v clock.Vector, in spec.QueryInput) (spec.QueryOutput, bool) {
	return r.queryCovered(v, in)
}
