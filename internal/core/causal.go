package core

// Causal delivery for any UQ-ADT, the second point on the consistency
// spectrum ("Extending Causal Consistency to any Object Defined by a
// Sequential Specification", Mostéfaoui–Perrin–Raynal). The replica
// reuses the broadcast machinery but replaces Algorithm 1's
// timestamp-arbitrated log entirely: each update is broadcast with the
// issuer's dependency vector, receivers gate delivery on that vector
// (an update lands only after everything its issuer had seen), and the
// state is folded eagerly in delivery order — no log, no sorting, no
// undo/replay. Queries are O(1) reads of the folded state.
//
// The trade: replicas may fold concurrent updates in different orders,
// so convergence is only guaranteed when concurrent updates commute
// (spec.Commutative objects — or workloads that happen to commute).
// Update consistency pays arbitration to promise convergence for every
// object; causal consistency is the cheaper contract for objects that
// do not need it. E22 prices the difference.

import (
	"fmt"
	"sync"

	"updatec/internal/clock"
	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// CausalConfig assembles a CausalReplica.
type CausalConfig struct {
	// ID is the process id (0 ≤ ID < N); N is the number of processes.
	ID int
	N  int
	// ADT is the sequential specification.
	ADT spec.UQADT
	// Codec serializes updates for broadcast (nil → the ADT's own, as
	// in Config.Codec).
	Codec spec.Codec
	// Net is the broadcast transport shared by the cluster.
	Net transport.Network
	// Recorder, when set, records this replica's operations — updates
	// and queries carry their dependency vectors, which the CC decider
	// consumes.
	Recorder *history.Recorder
}

// causalMsg is one buffered remote update waiting for its dependencies.
type causalMsg struct {
	from int
	deps clock.Vector
	u    spec.Update
}

// CausalReplica delivers updates in causal order and folds them as they
// arrive. It implements the same Update/Query surface as Replica, so
// the public package wires typed handles to either interchangeably.
type CausalReplica struct {
	mu    sync.Mutex
	id, n int
	adt   spec.UQADT
	codec spec.Codec
	net   transport.Network
	rec   *history.Recorder

	// state is the eagerly folded state; vc[j] counts the process-j
	// updates folded into it (including our own for j == id).
	state spec.State
	vc    clock.Vector
	// pending buffers remote updates whose dependencies have not all
	// been folded yet.
	pending []causalMsg

	// applied/buffered count folds and out-of-order arrivals, for tests
	// and stats.
	applied, buffered uint64

	// keyMemo caches StateKey's canonical key while keyMemoOK.
	keyMemo   string
	keyMemoOK bool
}

// NewCausalReplica builds the replica and attaches it to the transport.
func NewCausalReplica(cfg CausalConfig) *CausalReplica {
	codec := cfg.Codec
	if codec == nil {
		codec, _ = cfg.ADT.(spec.Codec)
	}
	if codec == nil {
		panic(fmt.Sprintf("core: %s implements no spec.Codec and none was configured", cfg.ADT.Name()))
	}
	r := &CausalReplica{
		id:    cfg.ID,
		n:     cfg.N,
		adt:   cfg.ADT,
		codec: codec,
		net:   cfg.Net,
		rec:   cfg.Recorder,
		state: cfg.ADT.Initial(),
		vc:    clock.NewVector(cfg.N),
	}
	r.net.Attach(cfg.ID, r.handle)
	return r
}

// ID returns the process id.
func (r *CausalReplica) ID() int { return r.id }

// ADT returns the replica's sequential specification.
func (r *CausalReplica) ADT() spec.UQADT { return r.adt }

// Update folds u locally and broadcasts it tagged with this replica's
// dependency vector — the per-process update counts folded so far.
// Wait-free: no acknowledgement, no coordination.
func (r *CausalReplica) Update(u spec.Update) {
	r.mu.Lock()
	deps := r.vc.Clone()
	if r.rec != nil {
		r.rec.UpdateDeps(r.id, u, deps)
	}
	r.vc[r.id]++
	r.state = r.adt.Apply(r.state, u)
	r.applied++
	r.keyMemoOK = false
	// The payload is deps followed by the codec bytes; the transport
	// retains it until delivery, so it is allocated per message.
	payload := deps.Encode(make([]byte, 0, 8*(r.n+1)))
	op, err := r.codec.EncodeUpdate(u)
	if err != nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("core: cannot encode update: %v", err))
	}
	payload = append(payload, op...)
	r.mu.Unlock()
	r.net.Broadcast(r.id, payload)
}

// handle consumes one transport delivery: decode, buffer, and fold
// everything that has become deliverable.
func (r *CausalReplica) handle(from int, payload []byte) {
	if from == r.id {
		// Self-delivery: the update was folded synchronously in Update.
		return
	}
	deps, off, err := clock.DecodeVector(payload)
	if err != nil {
		panic(fmt.Sprintf("core: causal replica %d: bad dependency vector from %d: %v", r.id, from, err))
	}
	u, err := r.codec.DecodeUpdate(payload[off:])
	if err != nil {
		panic(fmt.Sprintf("core: causal replica %d: bad update from %d: %v", r.id, from, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = append(r.pending, causalMsg{from: from, deps: deps, u: u})
	if len(r.pending) > 1 || !r.deliverableLocked(r.pending[0]) {
		r.buffered++
	}
	r.drainLocked()
}

// deliverableLocked implements the causal gate for a message from j
// with dependency vector D: the next-in-sender-order condition
// vc[j] == D[j], and every dependency folded, vc[k] ≥ D[k].
func (r *CausalReplica) deliverableLocked(m causalMsg) bool {
	if len(m.deps) != r.n {
		panic(fmt.Sprintf("core: causal replica %d: dependency vector has %d entries, cluster has %d", r.id, len(m.deps), r.n))
	}
	if r.vc[m.from] != m.deps[m.from] {
		return false
	}
	for k, d := range m.deps {
		if k != m.from && r.vc[k] < d {
			return false
		}
	}
	return true
}

// drainLocked folds buffered messages to a fixpoint: each fold may
// unblock others, so scan until a full pass makes no progress.
func (r *CausalReplica) drainLocked() {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(r.pending); {
			m := r.pending[i]
			if !r.deliverableLocked(m) {
				i++
				continue
			}
			r.state = r.adt.Apply(r.state, m.u)
			r.vc[m.from]++
			r.applied++
			r.keyMemoOK = false
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			progress = true
		}
	}
}

// Query evaluates in on the folded state — O(1) dispatch, no replay.
func (r *CausalReplica) Query(in spec.QueryInput) spec.QueryOutput {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.adt.Query(r.state, in)
	if r.rec != nil {
		r.rec.QueryDeps(r.id, in, out, r.vc.Clone())
	}
	return out
}

// QueryOmega evaluates and records the converged (ω) query.
func (r *CausalReplica) QueryOmega(in spec.QueryInput) spec.QueryOutput {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.adt.Query(r.state, in)
	if r.rec != nil {
		r.rec.QueryOmegaDeps(r.id, in, out, r.vc.Clone())
	}
	return out
}

// StateKey is the canonical key of the folded state, memoized between
// folds.
func (r *CausalReplica) StateKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.keyMemoOK {
		r.keyMemo = r.adt.KeyState(r.state)
		r.keyMemoOK = true
	}
	return r.keyMemo
}

// Pending reports buffered (undeliverable-yet) remote updates.
func (r *CausalReplica) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// CausalStats reports folds and out-of-order arrivals.
func (r *CausalReplica) CausalStats() (applied, buffered uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.buffered
}

// CausalCluster builds n causal replicas sharing one transport.
func CausalCluster(n int, adt spec.UQADT, codec spec.Codec, net transport.Network, rec *history.Recorder) []*CausalReplica {
	reps := make([]*CausalReplica, n)
	for i := 0; i < n; i++ {
		reps[i] = NewCausalReplica(CausalConfig{
			ID: i, N: n, ADT: adt, Codec: codec, Net: net, Recorder: rec,
		})
	}
	return reps
}
