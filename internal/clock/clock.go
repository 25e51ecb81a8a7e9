// Package clock provides the logical time substrate of the paper's
// generic construction (§VII): Lamport clocks, the (clock, process-id)
// timestamp pairs that totally order updates, vector clocks, and the
// low-water-mark stability tracker used for log garbage collection.
package clock

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Timestamp is the pair (cl, j) attached to every update in
// Algorithm 1: a Lamport clock value and the id of the issuing process.
// Timestamps are totally ordered lexicographically — (cl, j) < (cl', j')
// iff cl < cl' or (cl = cl' and j < j') — because process ids are unique
// and totally ordered.
type Timestamp struct {
	Clock uint64
	Proc  int
}

// Less reports the paper's total order on timestamps.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Clock != o.Clock {
		return t.Clock < o.Clock
	}
	return t.Proc < o.Proc
}

// Compare returns -1, 0 or +1 following the total order.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Less(o):
		return -1
	case o.Less(t):
		return 1
	default:
		return 0
	}
}

// String renders the timestamp as "(cl,j)".
func (t Timestamp) String() string {
	return fmt.Sprintf("(%d,%d)", t.Clock, t.Proc)
}

// Encode appends a compact wire encoding (uvarint clock, uvarint pid)
// to dst and returns the extended slice. The encoding grows
// logarithmically with the clock value and the number of processes,
// matching the message-size claim of §VII-C.
func (t Timestamp) Encode(dst []byte) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], t.Clock)
	dst = append(dst, buf[:n]...)
	n = binary.PutUvarint(buf[:], uint64(t.Proc))
	return append(dst, buf[:n]...)
}

// DecodeTimestamp reads a timestamp produced by Encode and returns it
// with the number of bytes consumed, or an error on malformed input.
func DecodeTimestamp(b []byte) (Timestamp, int, error) {
	cl, n := binary.Uvarint(b)
	if n <= 0 {
		return Timestamp{}, 0, fmt.Errorf("clock: malformed timestamp clock")
	}
	pid, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return Timestamp{}, 0, fmt.Errorf("clock: malformed timestamp pid")
	}
	return Timestamp{Clock: cl, Proc: int(pid)}, n + m, nil
}

// AtomicLamport is a Lamport logical clock (Lamport 1978), the
// pre-total order that Algorithm 1 refines into a total order with
// process ids. It is safe for concurrent use without external locking:
// queries running under a replica's shared (read) lock stamp their
// logical time (line 13 of Algorithm 1) concurrently with each other,
// and the shards of a sharded replica share one.
type AtomicLamport struct {
	now atomic.Uint64
}

// Now returns the current clock value without advancing it.
func (l *AtomicLamport) Now() uint64 { return l.now.Load() }

// Tick advances the clock for a local event and returns the new value.
func (l *AtomicLamport) Tick() uint64 { return l.now.Add(1) }

// TickN atomically reserves k consecutive stamps and returns the
// highest: the caller owns the range [TickN(k)-k+1, TickN(k)]. One
// atomic add issues timestamps for a whole batch of updates, so a
// drain stage folding many concurrent appends pays one clock operation
// instead of k — and no other event (a concurrent query tick, a remote
// observation) can be stamped inside the reserved range, because the
// clock has already moved past it.
func (l *AtomicLamport) TickN(k uint64) uint64 { return l.now.Add(k) }

// Observe merges a remote clock value (clock <- max(clock, remote)).
func (l *AtomicLamport) Observe(remote uint64) {
	for {
		cur := l.now.Load()
		if remote <= cur || l.now.CompareAndSwap(cur, remote) {
			return
		}
	}
}

// Vector is a vector clock over n processes. The reproduction uses it
// for delivery bookkeeping (stability detection), not for ordering
// updates — Algorithm 1 deliberately needs only scalar clocks.
type Vector []uint64

// NewVector returns a zero vector clock for n processes.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Merge takes the component-wise maximum of v and o into v.
func (v Vector) Merge(o Vector) {
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// Observe raises the component of the timestamp's process to its clock
// value, if larger. Sessions use it to fold an issued update's
// timestamp into their observation vector.
func (v Vector) Observe(t Timestamp) {
	if t.Proc >= 0 && t.Proc < len(v) && t.Clock > v[t.Proc] {
		v[t.Proc] = t.Clock
	}
}

// Min returns the smallest component of v, 0 for an empty vector.
func (v Vector) Min() uint64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// LessEq reports the component-wise partial order v ≤ o.
func (v Vector) LessEq(o Vector) bool {
	for i := range v {
		var ov uint64
		if i < len(o) {
			ov = o[i]
		}
		if v[i] > ov {
			return false
		}
	}
	return true
}

// Encode appends uvarint components to dst.
func (v Vector) Encode(dst []byte) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(v)))
	dst = append(dst, buf[:n]...)
	for _, x := range v {
		n = binary.PutUvarint(buf[:], x)
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// DecodeVector reads a vector produced by Encode, returning it and the
// number of bytes consumed.
func DecodeVector(b []byte) (Vector, int, error) {
	length, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("clock: malformed vector length")
	}
	v := make(Vector, length)
	off := n
	for i := range v {
		x, m := binary.Uvarint(b[off:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("clock: malformed vector component %d", i)
		}
		v[i] = x
		off += m
	}
	return v, off, nil
}

// Stability tracks, per peer, the highest Lamport clock that peer is
// known to have reached. An update timestamped (cl, j) is *stable* once
// every process has reached a clock ≥ cl: no process can ever again
// issue an update with a smaller timestamp (a process's next update is
// stamped clock+1), so the prefix of the update linearization up to the
// stability horizon is immutable and can be folded into a snapshot —
// the garbage collection that §VII-C describes for "old messages".
//
// SOUNDNESS: for compacting a replay log, observations must be
// *direct* — ObservePeer(j, c) may only be called when a message
// stamped c was delivered from j over a FIFO link, because then every
// still-in-flight message from j carries a larger stamp. The link is
// the one between two processes, so the shards of a sharded replica
// share one tracker: a stamp on any shard bounds what is in flight to
// all of them. Merging hearsay vectors (ObserveVector) is only sound
// for applications where overshooting the true minimum is acceptable;
// internal/core does not use it for log compaction.
//
// A Stability is safe for concurrent use: each component is a running
// atomic maximum, so a query serving a cache hit under a replica's
// shared lock can feed ObserveSelf concurrently with other readers
// (raising a component can only raise the horizon, never unfold
// anything already declared stable).
type Stability struct {
	reached []atomic.Uint64
	self    int
}

// retiredClock is the sentinel a retired process's component is raised
// to: the maximum clock, so the process never holds the horizon back.
const retiredClock = ^uint64(0)

// NewStability returns a tracker for n processes, for the local process
// self.
func NewStability(n, self int) *Stability {
	return &Stability{reached: make([]atomic.Uint64, n), self: self}
}

// raise lifts component j to clock if larger (atomic running max).
func (s *Stability) raise(j int, clock uint64) {
	for {
		cur := s.reached[j].Load()
		if clock <= cur || s.reached[j].CompareAndSwap(cur, clock) {
			return
		}
	}
}

// ObserveSelf records the local process's clock.
func (s *Stability) ObserveSelf(clock uint64) { s.raise(s.self, clock) }

// ObservePeer records knowledge that process j reached the given clock.
func (s *Stability) ObservePeer(j int, clock uint64) {
	if j >= 0 && j < len(s.reached) {
		s.raise(j, clock)
	}
}

// ObserveVector merges a piggybacked "reached" vector from a peer.
func (s *Stability) ObserveVector(v Vector) {
	for j := range s.reached {
		if j < len(v) {
			s.raise(j, v[j])
		}
	}
}

// Reached returns a copy of the per-process reached-clock vector, for
// piggybacking on outgoing messages.
func (s *Stability) Reached() Vector {
	v := NewVector(len(s.reached))
	for j := range s.reached {
		v[j] = s.reached[j].Load()
	}
	return v
}

// Horizon returns the stability horizon: every update with
// Timestamp.Clock ≤ Horizon() is stable. Updates *at* the horizon are
// stable because any future update by any process j is stamped at
// least reached[j]+1 > Horizon().
func (s *Stability) Horizon() uint64 {
	if len(s.reached) == 0 {
		return 0
	}
	m := s.reached[0].Load()
	for j := 1; j < len(s.reached); j++ {
		if x := s.reached[j].Load(); x < m {
			m = x
		}
	}
	return m
}

// Stable reports whether an update with the given timestamp is stable.
func (s *Stability) Stable(t Timestamp) bool { return t.Clock <= s.Horizon() }

// Retire marks a crashed process as excluded from the horizon: a
// crashed process issues no further updates, so it no longer holds
// stability back. Without this, a single crash would freeze the
// horizon forever — the price the paper acknowledges for wait-freedom
// is that GC is an optimization requiring liveness information.
func (s *Stability) Retire(j int) {
	if j >= 0 && j < len(s.reached) {
		s.reached[j].Store(retiredClock)
	}
}
