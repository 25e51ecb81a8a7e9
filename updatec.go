// Package updatec is a Go implementation of update consistency — the
// consistency criterion of Perrin, Mostéfaoui and Jard, "Update
// Consistency for Wait-free Concurrent Objects" (IPDPS 2015) — together
// with the paper's universal construction for arbitrary update-query
// data types (Algorithm 1) with the optimization of its shared memory
// (Algorithm 2) as a log policy, the CRDT baselines it compares against,
// and machine-checked deciders for the paper's consistency criteria.
//
// The package offers replicated objects (Set, Counter, Register,
// TextLog, Graph, Sequence, KV, CounterMap, Memory) whose replicas
// converge, after all updates have been delivered, to the state reached
// by a single total order of all updates — a guarantee strictly
// stronger than eventual consistency: the converged state is always
// explainable by a sequential execution of the object's specification.
// Every operation is wait-free: it completes using only local state,
// whatever the network does and however many replicas crash.
//
// # Quick start
//
// The construction is generic — Algorithm 1 works for any update-query
// ADT — and so is the API: one entry point, New, instantiated by an
// Object descriptor per data type.
//
//	cluster, sets, _ := updatec.New(3, updatec.SetObject())
//	defer cluster.Close()
//	sets[0].Insert("x")
//	sets[1].Delete("x") // concurrent conflicting update
//	cluster.Settle()    // deliver everything in flight
//	// All replicas now agree, and the common state is the result of
//	// SOME total order of the two updates.
//
// By default a cluster runs on a live goroutine transport. WithSeed
// switches to a deterministic simulated network whose adversarial
// delivery order is reproducible, which the experiment harness and
// tests use. WithRecording records the run as a distributed history
// that can be classified under the paper's criteria.
//
// Partitionable objects — those whose state decomposes into
// independent per-key components: SetObject, KVObject, MemoryObject,
// CounterMapObject — additionally accept WithShards(s): each replica
// then runs one instance of Algorithm 1 per key shard (own log and
// engine; the clock, send order and compaction horizon stay the
// process's), so a keyed read touches one shard and a late arrival
// redoes one shard's suffix, while per shard the paper's guarantees
// hold verbatim and the merged object stays update consistent. The shard count can be
// changed live with Cluster.Resize, which moves each key range's state
// between shards (snapshot of the compacted base plus replay of the
// live log suffix) and lands in-flight messages via epoch-tagged
// routing.
//
// Cluster.Session opens a per-client session with read-your-writes and
// monotonic reads across replica failover, for any object built on the
// generic construction, sharded or not.
//
// # Bring your own object
//
// The built-ins are not special: they are assembled with the same
// public kit applications use. Define builds an Object descriptor from
// any sequential specification (a Spec), and the optional capability
// interfaces the built-ins implement — Codec, QueryCodec, Undoable,
// Partitionable, QueryKeyer, StateCodec, Commutative, Masking — unlock
// the same upgrades (wire queries, sharding, Resize, the undo engine,
// query caching, a log of one entry per register) for user-defined
// types. No layer below the
// descriptor registry knows the built-ins by name.
//
// # Consistency levels
//
// WithConsistency selects the consistency level per object:
// UpdateConsistent (the default) is the paper's construction —
// timestamp-arbitrated total order, convergence for every object.
// Causal is the same construction with gated visibility: an update
// becomes visible at a replica only after everything its issuer had
// seen, which adds causal visibility to the same convergence (causal
// convergence).
package updatec

import (
	"fmt"
	"sync"

	"updatec/internal/core"
	"updatec/internal/history"
	"updatec/internal/transport"
)

// Level selects a consistency level for a cluster (WithConsistency).
type Level int

const (
	// UpdateConsistent is the paper's criterion and the default: all
	// replicas converge to the state of one total order of all updates,
	// for every object.
	UpdateConsistent Level = iota
	// Causal is UpdateConsistent with gated visibility: each update is
	// broadcast with its issuer's dependency vector, and a replica makes
	// it visible only once it holds everything that vector names, so
	// every replica's visible set is causally closed. The replicas still
	// fold their visible updates in the one timestamp order, so Causal
	// converges for every object and stays strong update consistent.
	// It is causally consistent for Commutative objects, whose fold order
	// is unobservable. For others it is not: by the paper's Proposition 1
	// no wait-free object is both pipelined consistent and convergent, and
	// a late arrival may be ordered before updates a replica already
	// showed. Causal accepts every option, WithShards and Resize
	// included: the gate belongs to the process, not to one shard.
	Causal
)

// String names the level.
func (l Level) String() string {
	switch l {
	case UpdateConsistent:
		return "update-consistent"
	case Causal:
		return "causal"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

type config struct {
	seed      int64
	simulated bool
	fifo      bool
	gc        bool
	// replay runs every replica on the paper-literal ReplayEngine instead
	// of the one its object's capabilities pick: the oracle this package's
	// tests compare the default engine with. No exported option sets it.
	replay bool
	record bool
	shards int
	level  Level
}

// Option configures a cluster.
type Option func(*config)

// WithSeed runs the cluster on the deterministic simulated network
// driven by the given adversary seed. Deliveries happen only through
// Cluster.Deliver and Cluster.Settle, making runs fully reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) { c.simulated = true; c.seed = seed }
}

// WithFIFO restricts the simulated network to per-link FIFO delivery
// (required by WithGC; implied on the live transport).
func WithFIFO() Option { return func(c *config) { c.fifo = true } }

// WithGC enables stability-based log compaction (§VII-C garbage
// collection). It requires FIFO delivery. A Masking object (MemoryObject,
// KVObject, RegisterObject) accepts it with nothing to fold: its log
// already keeps one entry per register. Any number of goroutines may
// write through one handle: a replica sends its updates in the order it
// stamps them, which is what compaction relies on.
func WithGC() Option { return func(c *config) { c.gc = true } }

// WithRecording records every operation into a distributed history
// available from Cluster.History and Cluster.Classify.
//
// A recorded history needs a well-defined program order per process:
// drive each handle of a recorded cluster from a single goroutine (the
// deciders' model is one sequential process per replica — concurrent
// callers on one handle have no program order to record). Keep
// recorded runs small and deterministic (WithSeed); Classify solves
// NP-complete search problems.
func WithRecording() Option { return func(c *config) { c.record = true } }

// WithConsistency selects the cluster's consistency level. The default
// is UpdateConsistent; see Level for what Causal adds and what it cannot.
func WithConsistency(l Level) Option { return func(c *config) { c.level = l } }

// WithShards runs each replica as s key shards — one instance of
// Algorithm 1 (log, query engine) per shard, updates routed to the
// shard owning their key; the shards share the process's Lamport
// clock, writer token and stability tracker, and its one stream to
// each peer. It requires
// a partitionable object (SetObject, KVObject, MemoryObject,
// CounterMapObject):
// distinct keys are independent there, so update consistency composes
// per key and the merged object keeps the paper's guarantee. One shard
// is the unsharded construction. The count is a starting point, not a
// commitment: Cluster.Resize re-partitions the key space live.
func WithShards(s int) Option { return func(c *config) { c.shards = s } }

// Cluster owns the transport and replicas of one replicated object.
// The type parameter H is the typed per-replica handle (for example
// *Set), fixed by the Object descriptor New was called with.
type Cluster[H any] struct {
	n        int
	obj      Object[H]
	sim      *transport.SimNetwork
	live     *transport.LiveNetwork
	replicas []*core.ShardedReplica
	level    Level
	rec      *history.Recorder
	// omegaDone is set once recorded() has recorded the ω queries.
	omegaDone bool
	gc        bool
	// mu guards the mutable control fields below — Crash/Recover,
	// Resize and Close run concurrently with Shards()/Converged()
	// readers on a live cluster.
	mu      sync.Mutex
	crashed map[int]bool
	shards  int
	closed  bool
}

// NetworkStats summarizes transport traffic: Broadcasts counts
// application-level broadcasts (one per update), Sends and Bytes
// point-to-point transmissions and payload bytes. DroppedCrash and
// DroppedLink attribute message loss: envelopes lost to crashed receivers
// (in flight when the crash hit, or sent while the process stayed down)
// versus losses injected by per-link faults (FaultLink) or, on a wire
// node, discarded while a peer link was down. Partitions drop nothing —
// cut messages stay queued until Heal. Reconnects stays zero off the
// wire.
type NetworkStats = transport.Stats

// New builds n replicas of the object described by obj and returns the
// cluster together with one typed handle per replica. It is the single
// constructor for every built-in data type:
//
//	cluster, sets, err := updatec.New(3, updatec.SetObject())
//	cluster, ctrs, err := updatec.New(5, updatec.CounterObject(), updatec.WithSeed(7))
//	cluster, maps, err := updatec.New(3, updatec.CounterMapObject(), updatec.WithShards(4))
//
// New validates the option/object combination and returns an error —
// rather than silently ignoring the option — when the object does not
// support it. Support is probed through the object's capabilities, not
// a list of built-in names: WithShards needs a Partitionable spec, and
// WithRecording needs a converged query (WithOmega). Every
// validation error wraps one of the package sentinels (ErrBadObject,
// ErrBadOption, ErrUnsupported), so callers can test categories with
// errors.Is.
func New[H any](n int, obj Object[H], opts ...Option) (*Cluster[H], []H, error) {
	if obj.wrap == nil {
		return nil, nil, fmt.Errorf("updatec: zero Object; use Define or a built-in descriptor (SetObject, CounterObject, ...): %w", ErrBadObject)
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("updatec: cluster size must be positive, got %d: %w", n, ErrBadOption)
	}
	cfg := config{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.level != UpdateConsistent && cfg.level != Causal {
		return nil, nil, fmt.Errorf("updatec: WithConsistency(%d): unknown level: %w", int(cfg.level), ErrBadOption)
	}
	if cfg.shards < 1 {
		return nil, nil, fmt.Errorf("updatec: WithShards needs at least one shard, got %d: %w", cfg.shards, ErrBadOption)
	}
	if cfg.shards > 1 && !obj.partitionable() {
		return nil, nil, fmt.Errorf("updatec: %s is not partitionable; WithShards requires a spec implementing Partitionable: %w", obj.name, ErrUnsupported)
	}
	if cfg.gc && cfg.simulated && !cfg.fifo {
		return nil, nil, fmt.Errorf("updatec: WithGC on a simulated network requires WithFIFO: %w", ErrUnsupported)
	}
	if cfg.record && !obj.hasOmega {
		return nil, nil, fmt.Errorf("updatec: %s has no converged query; WithRecording requires an object defined with WithOmega: %w", obj.name, ErrUnsupported)
	}
	cl := &Cluster[H]{n: n, obj: obj, level: cfg.level, shards: cfg.shards, gc: cfg.gc, crashed: map[int]bool{}}
	var net transport.ResizableNetwork
	if cfg.simulated {
		cl.sim = transport.NewSim(transport.SimOptions{N: n, Seed: cfg.seed, FIFO: cfg.fifo})
		net = cl.sim
	} else {
		cl.live = transport.NewLive(n)
		net = cl.live
	}
	if cfg.record {
		cl.rec = history.NewRecorder(obj.adt, n)
	}
	handles := make([]H, n)
	// The replicas pick their engine from the object's capabilities
	// (core.DefaultEngine) unless the tests' oracle switch is set.
	var mkEngine func() core.Engine
	if cfg.replay {
		mkEngine = func() core.Engine { return core.NewReplayEngine() }
	}
	cl.replicas = core.ShardedCluster(n, cfg.shards, obj.adt, net, core.ClusterOptions{
		NewEngine: mkEngine, Codec: obj.codec, GC: cfg.gc, Recorder: cl.rec, Causal: cfg.level == Causal,
	})
	for i, r := range cl.replicas {
		handles[i] = obj.wrap(r)
	}
	return cl, handles, nil
}

// N returns the cluster size.
func (c *Cluster[H]) N() int { return c.n }

// Level returns the cluster's consistency level.
func (c *Cluster[H]) Level() Level { return c.level }

// Shards returns the current shard count per replica (1 unless
// WithShards or Resize changed it).
func (c *Cluster[H]) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards
}

// ShardOf returns the shard that currently owns the given key — a pure
// function of key and the current shard count, identical on every
// replica. For a non-partitionable object it reports shard 0, where
// every update actually lives.
func (c *Cluster[H]) ShardOf(key string) int {
	return c.replicas[0].ShardOf(key)
}

// Resize re-partitions a partitionable cluster's key space across
// newShards shards, live — the shard count chosen at construction
// (WithShards, default 1) is no longer frozen. Every replica builds a
// fresh set of per-shard instances of Algorithm 1, transfers each key
// range's state from the old shard that owned it (the compacted base
// split per key, the live log suffix replayed with timestamps intact),
// then atomically flips its routing table. Updates issued while a
// replica moves its state wait for the flip; everything is wait-free
// again the moment it lands. Messages in flight across the flip need
// no coordination: broadcasts carry their routing epoch, and receivers
// land cross-epoch deliveries in the shard that owns their key under
// the current table.
//
// After Resize and a Settle, every replica's merged state is identical
// to a fresh cluster built at the new shard count and fed the same
// updates — the convergence guarantee survives re-grouping, exactly as
// the partitionable-systems argument promises.
//
// On a simulated cluster the replicas flip one after another with the
// adversary's backlog still in flight; on a live cluster the resize is
// coordinated — all replicas stall updates, the mailboxes drain, every
// replica moves, then all flip together.
//
// Resize follows the same option/object discipline as WithShards: it
// returns an error for non-partitionable objects, non-positive shard
// counts, and closed clusters. A recorded cluster keeps recording
// across a Resize, and a causal cluster keeps its gate: updates held
// back for a dependency stay held and land, once released, in the shard
// that owns their key then. Sessions opened before a Resize to a
// different shard count are invalidated: their per-shard observation
// lanes no longer correspond to key ranges, and further use panics —
// open a new session.
func (c *Cluster[H]) Resize(newShards int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("updatec: Resize on a closed cluster: %w", ErrBadOption)
	}
	if newShards < 1 {
		return fmt.Errorf("updatec: Resize needs at least one shard, got %d: %w", newShards, ErrBadOption)
	}
	if !c.obj.partitionable() {
		return fmt.Errorf("updatec: %s is not partitionable; Resize requires a spec implementing Partitionable: %w", c.obj.name, ErrUnsupported)
	}
	if newShards == c.shards {
		return nil
	}
	if c.sim != nil {
		for _, r := range c.replicas {
			r.Resize(newShards)
		}
	} else {
		core.ResizeCluster(c.replicas, newShards, c.live.Drain)
	}
	c.shards = newShards
	return nil
}

// ResizeStats reports the resharding counters of replica 0: resizes
// that changed the shard count, and live log entries replayed across
// shards by them. The resize count is cluster-uniform; the moved-entry
// count is per-replica — on a simulated cluster the replicas flip with
// different portions of the backlog delivered, so each moves a
// different number of entries (the stragglers arrive later as
// cross-epoch deliveries, which are not counted as moved).
func (c *Cluster[H]) ResizeStats() (resizes, movedEntries uint64) {
	return c.replicas[0].ResizeStats()
}

// CacheStats reports the cluster-wide query-output cache counters,
// summed over every replica and shard. Hits accrue on recorded and GC
// clusters too — the cache serves those modes since PR 5, feeding the
// recorder and the stability tick on the hit path — which the tests
// assert through this counter.
func (c *Cluster[H]) CacheStats() (hits, misses uint64) {
	for _, r := range c.replicas {
		h, m := r.QueryCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Deliver delivers one in-flight message on a simulated cluster,
// chosen by the seeded adversary, reporting whether anything was
// deliverable. It panics on a live cluster (delivery is autonomous
// there).
func (c *Cluster[H]) Deliver() bool {
	if c.sim == nil {
		panic("updatec: Deliver is only meaningful with WithSeed (simulated transport)")
	}
	return c.sim.Step()
}

// Settle delivers every in-flight message: on a simulated cluster it
// runs the adversary to quiescence; on a live cluster it waits for all
// mailboxes to drain. After Settle (and absent new updates) all
// replicas have applied the same update set and therefore agree.
func (c *Cluster[H]) Settle() {
	if c.sim != nil {
		c.sim.Quiesce()
		return
	}
	c.live.Drain()
}

// ScheduleFingerprint returns a hash pinning the delivery schedule the
// simulated adversary has executed so far: two runs with the same
// seed and driver call sequence produce identical fingerprints, and any divergence in which message was delivered when
// changes the value. It is the determinism regression gate's
// observable. Requires WithSeed.
func (c *Cluster[H]) ScheduleFingerprint() uint64 {
	if c.sim == nil {
		panic("updatec: ScheduleFingerprint requires WithSeed (simulated transport)")
	}
	return c.sim.ScheduleFingerprint()
}

// Crash halts a replica's transport: it stops receiving (on every shard,
// with messages addressed to it dropped while it is down) and its
// broadcasts are suppressed. Survivors keep operating — wait-freedom.
// The replica itself keeps its state, and its handle still works: an
// update issued on it while it is down lands in its own log (visible to
// its own reads) and reaches the others when Recover runs anti-entropy —
// on both backends. Crashed replicas are excluded
// from Converged, from recorded ω queries, and from anti-entropy rounds
// until they Recover. Crashing an id that is
// out of range or already crashed is an error on both backends — the
// sim and live transports used to diverge here (silent no-op versus
// index panic), and Recover needs the crash set to be exact.
func (c *Cluster[H]) Crash(p int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= c.n {
		return fmt.Errorf("updatec: Crash(%d): replica id out of range [0,%d): %w", p, c.n, ErrBadOption)
	}
	if c.crashed[p] {
		return fmt.Errorf("updatec: Crash(%d): replica is already crashed: %w", p, ErrBadOption)
	}
	c.crashed[p] = true
	if c.sim != nil {
		c.sim.Crash(p)
		return nil
	}
	c.live.Crash(p)
	return nil
}

// Recover brings a crashed replica back. Its pre-crash local state is
// intact — a crash stops the transport, not the replica — but every
// message addressed to it while it was down is gone, so after resuming
// delivery the replica runs anti-entropy: it pulls the missing log
// suffix from each live, reachable peer (digest → encoded suffix →
// dedup'd insert; peers across an open partition wait for Heal's
// round), then every peer pulls from it, repairing updates the crashed
// replica had broadcast but that were lost with its in-flight messages,
// and updates issued on it while it was down.
// When a peer has compacted past what the recovering replica missed,
// the pull falls back to snapshot transfer. Recovery composes with
// Resize: a cluster resized while p was down resizes p's routing too
// (crash suppresses delivery, not structure), so the rejoin syncs per
// shard at the current count.
func (c *Cluster[H]) Recover(p int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= c.n {
		return fmt.Errorf("updatec: Recover(%d): replica id out of range [0,%d): %w", p, c.n, ErrBadOption)
	}
	if !c.crashed[p] {
		return fmt.Errorf("updatec: Recover(%d): replica is not crashed: %w", p, ErrBadOption)
	}
	if c.sim != nil {
		c.sim.Recover(p)
	} else {
		c.live.Recover(p)
	}
	delete(c.crashed, p)
	return c.syncHubLocked(p)
}

// Partition splits a simulated cluster's processes into groups;
// messages flow only within a group, and messages already in flight
// across the cut stay queued until Heal. Unmentioned processes form
// group 0. Requires WithSeed — a live cluster's in-process mailboxes
// cannot partition.
func (c *Cluster[H]) Partition(groups ...[]int) error {
	if c.sim == nil {
		return fmt.Errorf("updatec: Partition requires WithSeed (simulated transport): %w", ErrUnsupported)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range groups {
		for _, id := range g {
			if id < 0 || id >= c.n {
				return fmt.Errorf("updatec: Partition: replica id %d out of range [0,%d): %w", id, c.n, ErrBadOption)
			}
		}
	}
	c.sim.Partition(groups...)
	return nil
}

// Heal removes all partitions and immediately runs one anti-entropy
// round among the live replicas, so the sides exchange the update
// suffixes they missed without waiting for the queued cross-cut
// backlog to redeliver — the backlog then drains as counted duplicate
// drops. This is the partitionable-systems demonstration: update
// consistency survives the partition, and digest sync makes the repair
// a single exchange instead of a replay.
func (c *Cluster[H]) Heal() error {
	if c.sim == nil {
		return fmt.Errorf("updatec: Heal requires WithSeed (simulated transport): %w", ErrUnsupported)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sim.Heal()
	return c.syncAllLocked()
}

// Sync runs one full anti-entropy round among the live replicas: every
// replica ends up holding the union of what the group held, without any
// rebroadcast. Useful after fault injection (FaultLink) has dropped
// messages the transport will never redeliver; Heal and Recover run it
// automatically.
func (c *Cluster[H]) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncAllLocked()
}

// syncAllLocked runs one gather/scatter anti-entropy round with the
// lowest live id as the hub.
func (c *Cluster[H]) syncAllLocked() error {
	for p := 0; p < c.n; p++ {
		if !c.crashed[p] {
			return c.syncHubLocked(p)
		}
	}
	return nil
}

// syncHubLocked runs a symmetric digest exchange between hub and every
// live peer: the hub first pulls each peer's missing suffix — after
// which it holds the union of everything the live group has — then
// every peer pulls from the hub. 2(n-1) pulls, no broadcast traffic.
func (c *Cluster[H]) syncHubLocked(hub int) error {
	for pass := 0; pass < 2; pass++ {
		for q := 0; q < c.n; q++ {
			if q == hub || c.crashed[q] {
				continue
			}
			if c.sim != nil && !c.sim.Reachable(hub, q) {
				// Digest exchange is honest about partitions: a replica
				// syncs only with peers it could actually talk to.
				// Cross-cut repair happens in Heal's round.
				continue
			}
			dst, src := hub, q
			if pass == 1 {
				dst, src = q, hub
			}
			if _, err := c.replicas[dst].SyncFrom(c.replicas[src]); err != nil {
				return fmt.Errorf("updatec: anti-entropy pull %d<-%d: %w", dst, src, err)
			}
		}
	}
	return nil
}

// FaultLink injects message faults on the directed link from→to of a
// simulated cluster: each sent message is lost with probability drop,
// and each delivered message is re-delivered once more, in order, with
// probability dup. Dropped messages are gone for good — the simulator
// has no retransmission — so convergence then needs an anti-entropy
// round (Sync, or the automatic one in Heal/Recover); duplicates are
// absorbed by the replica's dedup'd insert and show up in RepairStats.
// Zero probabilities clear the link's faults. Requires WithSeed, and
// refuses WithGC clusters: stability-based compaction assumes
// exactly-once FIFO delivery, which injected faults break.
func (c *Cluster[H]) FaultLink(from, to int, drop, dup float64) error {
	if err := c.checkFault(drop, dup); err != nil {
		return err
	}
	if from < 0 || from >= c.n || to < 0 || to >= c.n || from == to {
		return fmt.Errorf("updatec: FaultLink(%d, %d): need two distinct replica ids in [0,%d): %w", from, to, c.n, ErrBadOption)
	}
	c.sim.SetLinkFault(from, to, transport.LinkFault{Drop: drop, Dup: dup})
	return nil
}

// FaultAll applies FaultLink to every cross-replica link at once,
// replacing any per-link faults; FaultAll(0, 0) clears every fault.
func (c *Cluster[H]) FaultAll(drop, dup float64) error {
	if err := c.checkFault(drop, dup); err != nil {
		return err
	}
	c.sim.SetLinkFaultAll(transport.LinkFault{Drop: drop, Dup: dup})
	return nil
}

// checkFault is FaultLink's and FaultAll's shared refusal: faults need
// the simulated transport, break WithGC's compaction, and are
// probabilities.
func (c *Cluster[H]) checkFault(drop, dup float64) error {
	if c.sim == nil {
		return fmt.Errorf("updatec: FaultLink requires WithSeed (simulated transport): %w", ErrUnsupported)
	}
	if c.gc {
		return fmt.Errorf("updatec: FaultLink on a WithGC cluster would break stability-based compaction: %w", ErrUnsupported)
	}
	if drop < 0 || drop >= 1 || dup < 0 || dup >= 1 {
		return fmt.Errorf("updatec: FaultLink probabilities must be in [0, 1), got drop=%v dup=%v: %w", drop, dup, ErrBadOption)
	}
	return nil
}

// RepairStats sums the repair counters over every replica and shard:
// entries landed by anti-entropy (sync rounds and snapshot fallbacks)
// and exact-duplicate arrivals the log dropped (post-heal redelivery of
// already-synced entries, injected duplication). A write a Masking
// object's log drops because a newer write to its register is already
// there is not a duplicate and is not counted here.
func (c *Cluster[H]) RepairStats() (syncApplied, dupDropped uint64) {
	for _, r := range c.replicas {
		st := r.Stats()
		syncApplied += st.SyncApplied
		dupDropped += st.DupDropped
	}
	return syncApplied, dupDropped
}

// Close releases transport resources (a no-op for simulated clusters).
func (c *Cluster[H]) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.live != nil {
		c.live.Close()
	}
}

// Stats returns transport traffic counters.
func (c *Cluster[H]) Stats() NetworkStats {
	if c.sim != nil {
		return c.sim.Stats()
	}
	return c.live.Stats()
}

// Converged reports whether all surviving (non-crashed) replicas
// currently have identical states (call Settle first for a meaningful
// answer). On a sharded cluster the comparison covers every shard.
//
// It compares canonical StateKeys, not update-set fingerprints (the wire
// daemons' StateKey): it is the oracle in-process runs end with, and it
// runs once, after Settle, not in a polling loop.
func (c *Cluster[H]) Converged() bool {
	crashed := c.crashedSet()
	want, first := "", true
	for p := 0; p < c.n; p++ {
		if crashed[p] {
			continue
		}
		if first {
			want, first = c.replicas[p].StateKey(), false
			continue
		}
		if c.replicas[p].StateKey() != want {
			return false
		}
	}
	return true
}

// History finalizes the recorded history: it settles the cluster,
// records one converged (ω) query per replica, and returns the history
// in the paper's notation. Requires WithRecording.
func (c *Cluster[H]) History() (string, error) {
	h, err := c.recorded()
	if err != nil {
		return "", err
	}
	return history.Format(h), nil
}

// Classification reports which of the paper's criteria a history
// satisfies, plus causal consistency (pipelined consistency
// strengthened by the dependency vectors causal-mode runs record).
type Classification struct {
	EventuallyConsistent       bool
	StrongEventuallyConsistent bool
	UpdateConsistent           bool
	StrongUpdateConsistent     bool
	PipelinedConsistent        bool
	CausallyConsistent         bool
	// Undecided names, space-separated, the criteria whose decider gave
	// no answer (EC, SEC, UC, SUC, PC or CC); each reads false above. SEC
	// is undecided for an object that cannot explain a state from its
	// observations (no spec.StateExplainer).
	Undecided string
}

// Classify finalizes the recorded history and classifies it under the
// criteria. Keep recorded runs small: the deciders solve NP-complete
// search problems. Requires WithRecording.
func (c *Cluster[H]) Classify() (Classification, error) {
	h, err := c.recorded()
	if err != nil {
		return Classification{}, err
	}
	return classify(h), nil
}

func (c *Cluster[H]) recorded() (*history.History, error) {
	if c.rec == nil {
		return nil, fmt.Errorf("updatec: cluster was built without WithRecording")
	}
	c.Settle()
	if !c.omegaDone {
		crashed := c.crashedSet()
		for p := 0; p < c.n; p++ {
			if !crashed[p] {
				c.replicas[p].QueryOmega(c.obj.omega)
			}
		}
		c.omegaDone = true // record ω queries only once
	}
	return c.rec.History()
}

// crashedSet snapshots the crashed ids under the control mutex.
func (c *Cluster[H]) crashedSet() map[int]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]bool, len(c.crashed))
	for p := range c.crashed {
		out[p] = true
	}
	return out
}
