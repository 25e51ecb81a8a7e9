package updatec

import (
	"fmt"

	"updatec/internal/core"
	"updatec/internal/history"
	"updatec/internal/spec"
)

// Session is a per-client session over a cluster, for any object built
// on the generic construction (sharded or not). It provides the two
// session guarantees that raw update consistency does not:
// read-your-writes and monotonic reads, preserved across failover from
// one replica to another — while staying wait-free: a read against a
// replica that has not yet caught up with the session's observations
// is refused instead of blocking. (Update consistency is a convergence
// guarantee; sessions add the per-client ordering guarantees on the
// way to convergence.)
//
// The session tracks, per originating process (and, on a sharded
// cluster, per shard lane), the highest update timestamp it has
// observed; a replica serves a read only when it covers the relevant
// observations — for a keyed read on a sharded cluster, only the shard
// owning the key is consulted, so staleness on unrelated shards never
// blocks it. Covered reads ride the replica's query-output cache, so a
// session read of a settled replica costs the same as a raw read.
//
// A Session is one client's state: use it from a single goroutine.
type Session[H any] struct {
	cl   *Cluster[H]
	sess *core.ShardedSession
	h    H
}

// Session opens a session against replica p. It returns an error for
// causal clusters (causal delivery tracks dependency vectors, not
// per-origin log coverage).
func (c *Cluster[H]) Session(p int) (*Session[H], error) {
	if c.level == Causal {
		return nil, fmt.Errorf("updatec: Session is not supported at WithConsistency(Causal): causal replicas track no per-origin coverage: %w", ErrUnsupported)
	}
	if p < 0 || p >= c.n {
		return nil, fmt.Errorf("updatec: session replica %d out of range [0,%d): %w", p, c.n, ErrBadOption)
	}
	s := &Session[H]{cl: c, sess: core.NewShardedSession(c.replicas[p])}
	sp := sessionPort{sess: s.sess}
	if c.rec != nil && c.Shards() > 1 {
		// Sharded clusters record at the harness level; the session is
		// part of the harness, so its operations enter the history too,
		// attributed to the replica currently serving it (exactly where
		// replica-level recording puts them on 1-shard clusters).
		sp.rec = c.rec
	}
	s.h = c.obj.wrap(sp)
	return s, nil
}

// Handle returns the session's typed handle. Updates through it are
// folded into the session's observations (read-your-writes). Reads
// through it are served only when the current replica covers the
// session's observations relevant to the read, and panic otherwise —
// guard reads with TryQuery when the replica may be stale.
func (s *Session[H]) Handle() H { return s.h }

// Switch fails the session over to replica p. The next read succeeds
// only once that replica has caught up with the session's relevant
// observations.
func (s *Session[H]) Switch(p int) {
	if p < 0 || p >= s.cl.n {
		panic(fmt.Sprintf("updatec: Session.Switch replica %d out of range [0,%d)", p, s.cl.n))
	}
	s.sess.Switch(s.cl.replicas[p])
}

// TryQuery runs f against the session's typed handle and reports
// whether every read inside f was served. It never blocks: false means
// a read hit a replica that is stale for this session — f may have run
// partially up to that read (each read that was served individually
// satisfied the session guarantees and was absorbed); retry later,
// Switch, or read a (possibly stale) plain replica handle instead.
//
// Staleness is checked per read, against exactly the observations the
// read depends on: on a sharded cluster a keyed read consults only the
// shard owning its key, so TryQuery stays available for keyed
// workloads even while unrelated shards are behind (a whole-state read
// needs every shard lane covered).
func (s *Session[H]) TryQuery(f func(H)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, stale := r.(staleReplica); stale {
				ok = false
				return
			}
			panic(r)
		}
	}()
	f(s.h)
	return true
}

// Covered reports whether the session's current replica covers every
// update the session has observed on every shard lane — i.e. whether
// any read, including a whole-state one, would succeed right now. It
// does not advance the session's observations. (A keyed read can
// succeed even when Covered is false; see TryQuery.)
func (s *Session[H]) Covered() bool { return s.sess.Covered() }

// staleReplica is the panic value raised by an unguarded session read
// against a replica that does not cover the session; Session.TryQuery
// converts it into its false return.
type staleReplica struct{}

func (staleReplica) String() string {
	return "updatec: session read against a stale replica; guard reads with Session.TryQuery or Switch to a caught-up replica"
}

// sessionPort routes a handle's operations through the session:
// updates fold their timestamps into the session's observations, reads
// are refused (with a staleReplica panic, which Session.TryQuery
// converts to false) when the replica does not cover the observations
// the read depends on. With rec set (sharded recorded clusters) every
// operation also enters the recorded history.
type sessionPort struct {
	sess *core.ShardedSession
	rec  *history.Recorder
}

func (p sessionPort) Update(u spec.Update) {
	if p.rec != nil {
		p.rec.Update(p.sess.Replica().ID(), u)
	}
	p.sess.Update(u)
}

func (p sessionPort) Query(in spec.QueryInput) spec.QueryOutput {
	out, ok := p.sess.TryQuery(in)
	if !ok {
		panic(staleReplica{})
	}
	if p.rec != nil {
		p.rec.Query(p.sess.Replica().ID(), in, out)
	}
	return out
}
