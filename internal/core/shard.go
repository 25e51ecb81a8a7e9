package core

import (
	"fmt"
	"strings"
	"sync"

	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// ShardedReplica is the key-sharded variant of the universal
// construction: one process's instance of S copies of Algorithm 1, one
// per shard of the key space. Each shard owns its own Log and query
// engine, so a keyed read touches one shard and a late-arriving update
// displaces only its own shard's log suffix instead of the whole log;
// broadcasts carry the shard's tag (transport.ResizableNetwork). The
// shards share what makes them one process (type process): the Lamport
// clock they all stamp with, as Algorithm 1 has it, the writer token
// they send under, the stability horizon they compact at and, at causal
// consistency, the gate their peers' updates pass (gate.go). A (clock,
// proc) pair names one update of the whole replica, and the shard logs
// merged by stamp give one order of every update that
// contains each process's issue order.
//
// The construction is sound for spec.Partitionable data types: updates
// to different keys are independent, so running Algorithm 1 per shard
// gives every shard the state of a total order of its own updates, and
// any interleaving of those per-shard orders is a single sequential
// execution producing the merged state. Per shard the guarantees of the
// paper are untouched — wait-freedom (Proposition 4) and strong update
// consistency — and the merged object remains update consistent: after
// convergence, every replica's merged state is explainable by one total
// order of all updates.
//
// The shard count is no longer frozen at construction: Resize
// re-partitions the key space live. Routing tables are versioned by an
// *epoch* — carried on the wire as the sender's shard count, which
// fully determines the table — alongside the shard tag, and each
// replica's delivery router lands cross-epoch messages in the shard
// that owns their key under the receiver's current table. A resize moves state between the per-shard instances
// of Algorithm 1 exactly as the paper's state-transfer argument
// prescribes: the compacted base is split per key range
// (spec.Partitionable.ExtractRange) and the live log suffix is
// replayed, timestamps intact, into the new shards' logs — so every
// replica sorts every update identically before and after the flip.
//
// Non-partitionable data types degrade gracefully: every update and
// query is routed to shard 0 and the object behaves exactly like a
// plain Replica (the remaining shards stay empty).
//
// A ShardedReplica is safe for concurrent use; concurrency control
// lives in the per-shard Replicas and the process's writer token, plus a
// routing lock whose read half the operation hot paths hold so a resize
// can exclude them.
type ShardedReplica struct {
	id        int
	n         int
	adt       spec.UQADT
	part      spec.Partitionable // nil → everything routes to shard 0
	codec     spec.Codec
	qkeyer    spec.QueryKeyer // non-nil when whole-state outputs can be cached
	newEngine func() Engine
	gc        bool
	gcEvery   int
	// process is what every shard shares: the clock, the writer token,
	// the stability tracker, the causal gate and the current generation
	// of shards (gen). rec, when set, records the process's operations:
	// the shards record their updates and keyed queries, queryMerged the
	// merged ones.
	process
	rec *history.Recorder
	// net is the shard- and epoch-aware transport the cluster shares.
	net transport.ResizableNetwork

	// routeMu excludes a resize against updates, queries and session
	// reads: the hot paths hold the read half, Resize the write half.
	// The delivery router deliberately does NOT take it — it reads gen
	// atomically — so in-flight deliveries keep draining while a
	// coordinated live resize holds the write half (ResizeCluster
	// drains the network before moving any state).
	routeMu sync.RWMutex
	mc      mergedCache

	// resize bookkeeping (written under routeMu's write half):
	// resizes counts Resize calls that changed the shard count,
	// movedEntries the live log entries replayed across shards,
	// movedCompacted the updates the retired generations folded — their
	// shards' compactions and each resize's own fold — which no live
	// shard's counter holds.
	resizes        uint64
	movedEntries   uint64
	movedCompacted uint64
}

// mergedCache is the whole-state read cache of a ShardedReplica: the
// merged state, the per-shard contributions it was folded from, and
// the shard log version each contribution derives from. A whole-state
// query compares every shard's current version against vers and
// re-folds only the shards that moved — UnmergeFrom removes the stale
// contribution, MergeInto splices the fresh clone — so a read against
// S shards of which k changed costs O(k changed components) instead of
// S full folds from zero. On a settled replica no shard moved and the
// cached merged state is served as is (the per-shard states are
// key-disjoint, so contributions can be replaced independently).
//
// outs additionally memoizes whole-state query outputs against gen,
// which increments whenever any contribution is re-folded — the
// sharded analogue of the per-replica queryCache.
//
// A resize rebuilds the cache: the vers/parts arrays are resized to
// the new shard count, every stale contribution is dropped (a full
// reset — unmerging each and re-merging nothing — leaves the initial
// state), and gen is bumped so memoized outputs can never be served
// against the new routing.
type mergedCache struct {
	mu     sync.Mutex
	vers   []uint64     // shard log version each contribution is from
	parts  []spec.State // cloned per-shard contributions
	merged spec.State
	gen    uint64     // bumped on every re-fold; keys outs
	outs   queryCache // whole-state outputs, keyed on gen
	// folds counts shard re-folds, reads whole-state queries served;
	// the merged-cache benchmarks assert against the ratio.
	folds, reads uint64
}

// ShardedConfig assembles a ShardedReplica.
type ShardedConfig struct {
	// ID is the process id (0 ≤ ID < N); N is the number of processes.
	ID int
	N  int
	// Shards is the number of key shards (≥ 1). More shards than cores
	// is harmless; one shard reproduces the unsharded construction.
	Shards int
	// ADT is the sequential specification. It should implement
	// spec.Partitionable to benefit from sharding; otherwise all
	// traffic falls back to shard 0.
	ADT spec.UQADT
	// Codec overrides the update codec (nil → the ADT's own, as in
	// Config.Codec).
	Codec spec.Codec
	// Net is the broadcast transport shared by the cluster: every
	// transport (SimNetwork, LiveNetwork, TCPNetwork) carries shard and
	// epoch tags.
	Net transport.ResizableNetwork
	// NewEngine builds each shard's query engine (nil → DefaultEngine).
	NewEngine func() Engine
	// GC enables stability-based log compaction at the process's one
	// horizon; it requires a FIFO transport, exactly as for a plain
	// Replica. GCEvery is each shard's compaction period in deliveries
	// (default 32).
	GC      bool
	GCEvery int
	// Recorder records the replica's operations for the consistency
	// deciders, at every shard count and across a Resize.
	Recorder *history.Recorder
	// Causal gates visibility on causal order (Config.Causal), at every
	// shard count and across a Resize: the gate is the process's.
	Causal bool
}

// NewShardedReplica builds the per-shard replicas of one process and
// attaches its delivery router to the transport (each per-shard replica
// broadcasts with its shard and epoch tags).
func NewShardedReplica(cfg ShardedConfig) *ShardedReplica {
	if cfg.Shards <= 0 {
		panic("core: ShardedConfig.Shards must be positive")
	}
	part, _ := cfg.ADT.(spec.Partitionable)
	r := &ShardedReplica{
		id:        cfg.ID,
		n:         cfg.N,
		adt:       cfg.ADT,
		part:      part,
		newEngine: cfg.NewEngine,
		gc:        cfg.GC,
		gcEvery:   cfg.GCEvery,
		rec:       cfg.Recorder,
		net:       cfg.Net,
	}
	r.init(Config{ID: cfg.ID, N: cfg.N, GC: cfg.GC, Causal: cfg.Causal})
	if r.codec = cfg.Codec; r.codec == nil {
		r.codec, _ = cfg.ADT.(spec.Codec)
	}
	r.qkeyer, _ = cfg.ADT.(spec.QueryKeyer)
	r.mc.vers = make([]uint64, cfg.Shards)
	r.mc.parts = make([]spec.State, cfg.Shards)
	r.gen.Store(r.newGen(0, cfg.Shards))
	cfg.Net.AttachRouter(cfg.ID, r.route)
	return r
}

// newGen builds a generation of fresh shards at the given epoch, each
// broadcasting with its shard tag and the shard count.
func (r *ShardedReplica) newGen(epoch, shards int) *shardGen {
	g := &shardGen{epoch: epoch, shards: make([]*Replica, shards), part: r.part}
	for s := range g.shards {
		var eng Engine
		if r.newEngine != nil {
			eng = r.newEngine()
		}
		g.shards[s] = newReplica(Config{
			ID: r.id, N: r.n, ADT: r.adt, Codec: r.codec,
			Net:    epochChannel{net: r.net, shard: s, epoch: shards},
			Engine: eng, GC: r.gc, GCEvery: r.gcEvery, Recorder: r.rec,
		}, &r.process)
	}
	return g
}

// epochChannel binds a per-shard Replica's broadcasts to its (shard,
// epoch) tags on a resizable network. Attach is a no-op: the
// ShardedReplica's router owns delivery dispatch, calling the shard's
// handler directly.
//
// The epoch tag carried on the wire is the sender's *shard count*, not
// the generation counter: the routing table is a pure function of the
// count, so an equal tag certifies an identical table — even between
// replicas that resized independently (or through a grow/shrink cycle
// back to an earlier count) — and the receiver can trust the shard tag
// outright. A bare counter could collide between different tables;
// the count cannot.
type epochChannel struct {
	net   transport.ResizableNetwork
	shard int
	epoch int
}

// Attach implements transport.Network (the router dispatches instead).
func (epochChannel) Attach(int, transport.Handler) {}

// Broadcast implements transport.Network.
func (c epochChannel) Broadcast(from int, payload []byte) {
	c.net.BroadcastShardEpoch(from, c.shard, c.epoch, payload)
}

// route is the per-process delivery router (transport.EpochHandler).
// The process's own broadcasts, handed back inline by the transport, stop
// here: the shard that issued them already holds them (Replica.handle).
// A peer delivery whose epoch tag — the sender's shard count, which fully
// determines the routing table — matches ours goes straight to the
// tagged shard's handler: the hot path, no second decode, correct even
// if sender and receiver reached that count through different resize
// histories. A cross-epoch delivery (an in-flight message from before a
// resize, from a sender that resized first, or from a daemon run at
// another shard count) is decoded, and each owning shard under the
// *current* table lands its share of the step as handle lands a step,
// timestamps intact — where a local move would have put them. Once every
// share is in, the stamps feed the process's one stability tracker: the
// link is one FIFO stream whatever the tags, so processes at different
// shard counts compact too. At causal consistency any shard's handler
// passes a payload to the process's gate, which lands by key.
//
// The router reads the generation atomically instead of taking
// routeMu: a coordinated live resize drains the network while holding
// the write half, and a blocking router would deadlock that drain.
func (r *ShardedReplica) route(from, shard, epoch int, payload []byte) {
	if from == r.id {
		return
	}
	g := r.gen.Load()
	if epoch == len(g.shards) && shard < len(g.shards) {
		g.shards[shard].handle(from, payload)
		return
	}
	if r.causal {
		g.shards[0].handle(from, payload)
		return
	}
	step, err := g.shards[0].wire.decodeStep(nil, payload)
	if err != nil {
		panic(g.shards[0].badPayload(from, err))
	}
	// Every share lands before any stamp feeds the tracker; the owning
	// shards' locks are held, in shard order, until route returns.
	shares := g.split(step)
	for s, share := range shares {
		if len(share) > 0 {
			g.shards[s].mu.Lock()
			defer g.shards[s].mu.Unlock()
			g.shards[s].mergeLocked(share)
		}
	}
	for _, e := range step {
		g.shards[g.owner(e.U)].tailLocked(e.TS)
	}
}

// FlushIntake does nothing: every Update has been stamped, landed and
// handed to the transport by the time it returns, so there is nothing
// left to flush. It stays because the benchmark harness (benchmark/)
// calls it before draining a live cluster.
func (r *ShardedReplica) FlushIntake() {}

// ID returns the process id.
func (r *ShardedReplica) ID() int { return r.id }

// ADT returns the replica's sequential specification.
func (r *ShardedReplica) ADT() spec.UQADT { return r.adt }

// NumShards returns the current shard count.
func (r *ShardedReplica) NumShards() int { return len(r.gen.Load().shards) }

// Epoch returns the current routing epoch: 0 at construction,
// incremented by every Resize that changes the shard count.
func (r *ShardedReplica) Epoch() int { return r.gen.Load().epoch }

// Shard exposes the per-shard Replica (tests and the state-transfer
// harness use it); mutate it only through the ShardedReplica.
func (r *ShardedReplica) Shard(s int) *Replica { return r.gen.Load().shards[s] }

// ShardOf returns the shard that currently owns the given key. For a
// non-partitionable data type it reports shard 0 — where every update
// actually lives (the key hash is meaningless when updates are not
// keyed) — matching the routing of updates (shardGen.owner).
func (r *ShardedReplica) ShardOf(key string) int {
	g := r.gen.Load()
	if !g.keyed() {
		return 0
	}
	return routeKey(key, len(g.shards))
}

// routeKey maps a key to its owning shard under a table of the given
// size — a pure function of key and shard count, identical on every
// replica at the same epoch.
func routeKey(key string, shards int) int {
	return int(fnv1a(key) % uint64(shards))
}

// fnv1a is the 64-bit FNV-1a hash, the shard router's key hash: stable
// across processes (every replica routes a key to the same shard, which
// the disjointness of per-shard states relies on) and cheap enough for
// the update hot path.
func fnv1a(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Update issues u on the shard owning its key (lines 4–7 of
// Algorithm 1 on the process clock and that shard's log). Like
// Replica.Update it is wait-free and locally visible when it returns.
func (r *ShardedReplica) Update(u spec.Update) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	g.shards[g.owner(u)].Update(u)
}

// UpdateBatch issues us in order, each on the shard owning its key: the
// batch is split by shard, keeping each shard's share in order, and every
// share is one write step of that shard (Replica.UpdateBatch). Updates of
// different shards are independent, so only the order within a shard is
// observable.
func (r *ShardedReplica) UpdateBatch(us []spec.Update) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	if !g.keyed() {
		g.shards[0].UpdateBatch(us)
		return
	}
	shares := make([][]spec.Update, len(g.shards))
	for _, u := range us {
		s := g.owner(u)
		shares[s] = append(shares[s], u)
	}
	for s, share := range shares {
		g.shards[s].UpdateBatch(share)
	}
}

// Query evaluates a query input. A keyed query (spec.Partitionable's
// QueryKey reports ok) is served entirely by the owning shard — it
// costs exactly one shard's Replica.Query, regardless of the shard
// count (and hits that shard's query-output cache on repeat reads). A
// whole-state query is served from the merged-state cache: per-shard
// version compares find the shards that moved since the last read,
// only those contributions are re-folded, and on a settled replica
// the cached merged state — and, for cacheable inputs, the cached
// output itself — is returned without touching any shard.
//
// The merged result is deterministic across replicas after
// convergence: per-shard states are key-disjoint, so the union is
// independent of merge order, and each shard's state is the converged
// state of that shard's update total order.
func (r *ShardedReplica) Query(in spec.QueryInput) spec.QueryOutput {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	if !g.keyed() {
		return g.shards[0].Query(in)
	}
	if key, ok := r.part.QueryKey(in); ok {
		return g.shards[routeKey(key, len(g.shards))].Query(in)
	}
	return r.queryMerged(g, in, false)
}

// QueryOmega evaluates a query and records it as the replica's
// converged (ω) observation. With one shard it is exactly
// Replica.QueryOmega; a sharded replica evaluates it on the merged
// state.
func (r *ShardedReplica) QueryOmega(in spec.QueryInput) spec.QueryOutput {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	if !g.keyed() {
		return g.shards[0].QueryOmega(in)
	}
	return r.queryMerged(g, in, true)
}

// queryMerged serves a whole-state query from the merged-state cache,
// memoizing the output against the fold generation when the input is
// cacheable, and records it — as an ω observation when omega is set.
// Whole-state queries serialize on the cache mutex (they shared no
// structure before, but each paid a full S-shard fold; now the common
// settled read is a few version compares). Caller holds routeMu's read
// half.
func (r *ShardedReplica) queryMerged(g *shardGen, in spec.QueryInput, omega bool) spec.QueryOutput {
	key, cacheable := spec.QueryCacheKey{}, false
	if r.qkeyer != nil {
		key, cacheable = r.qkeyer.QueryInputKey(in)
	}
	mc := &r.mc
	mc.mu.Lock()
	defer mc.mu.Unlock()
	deps := r.refreshMergedLocked(g)
	mc.reads++
	out, ok := spec.QueryOutput(nil), false
	if cacheable {
		out, ok = mc.outs.lookup(mc.gen, key)
	}
	if !ok {
		out = r.adt.Query(mc.merged, in)
		if cacheable {
			mc.outs.store(mc.gen, key, out)
		}
	}
	switch {
	case r.rec == nil:
	case omega:
		r.rec.QueryOmegaDeps(r.id, in, out, deps)
	default:
		r.rec.QueryDeps(r.id, in, out, deps)
	}
	return out
}

// refreshMergedLocked brings the merged state up to date. Caller holds
// mc.mu (and routeMu's read half, so g is the current generation). A
// shard whose log version matches its cached contribution is skipped
// without taking its lock; a moved shard's state is cloned under its
// lock (ReadStateAt pins state and version together), then spliced in:
// the stale contribution is unmerged, the fresh clone merged —
// per-shard states are key-disjoint, so replacing one contribution
// never disturbs another's keys. A version of 0 means the shard has
// never been mutated, matching the nil contribution it starts with.
//
// At causal consistency a release lands across shards in one step, so the
// shards are read at one cut under every shard's lock, and the visible
// counts at that cut are returned for the record (depsLocked).
func (r *ShardedReplica) refreshMergedLocked(g *shardGen) (deps []uint64) {
	mc := &r.mc
	if mc.merged == nil {
		mc.merged = r.adt.Initial()
	}
	version, read := (*Replica).Version, (*Replica).ReadStateAt
	if r.causal {
		g.each((*sync.RWMutex).Lock)
		defer g.each((*sync.RWMutex).Unlock)
		deps = g.shards[0].depsLocked()
		version = func(sh *Replica) uint64 { return sh.log.Version() }
		read = func(sh *Replica, f func(spec.State, uint64)) { f(sh.engine.State(), sh.log.Version()) }
	}
	for s, sh := range g.shards {
		if version(sh) == mc.vers[s] {
			continue
		}
		var fresh spec.State
		var ver uint64
		read(sh, func(st spec.State, v uint64) {
			fresh = r.adt.Clone(st)
			ver = v
		})
		if mc.parts[s] != nil {
			mc.merged = r.part.UnmergeFrom(mc.merged, mc.parts[s])
		}
		mc.merged = r.part.MergeInto(mc.merged, fresh)
		mc.parts[s] = fresh
		mc.vers[s] = ver
		mc.gen++
		mc.folds++
	}
	return deps
}

// MergedState returns a clone of the replica's current whole state —
// every shard's key components folded together (served through the
// merged-state cache). Harnesses and tests use it; queries should go
// through Query, which can avoid the clone.
func (r *ShardedReplica) MergedState() spec.State {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	if !g.keyed() {
		var out spec.State
		g.shards[0].ReadStateAt(func(s spec.State, _ uint64) { out = r.adt.Clone(s) })
		return out
	}
	r.mc.mu.Lock()
	defer r.mc.mu.Unlock()
	r.refreshMergedLocked(g)
	return r.adt.Clone(r.mc.merged)
}

// MergedCacheStats reports the merged-state cache counters: folds is
// the number of per-shard contribution re-folds performed, reads the
// number of whole-state queries served. A read-mostly workload shows
// folds ≪ reads·S; the benchmarks and tests assert against it.
func (r *ShardedReplica) MergedCacheStats() (folds, reads uint64) {
	r.mc.mu.Lock()
	defer r.mc.mu.Unlock()
	return r.mc.folds, r.mc.reads
}

// QueryCacheStats sums the query-output cache counters (hits, misses)
// across the current shards — keyed reads hit the owning shard's
// cache, whole-state reads the merged-state output memo. Since PR 5
// the per-shard cache also serves recording and GC replicas, so hits
// accrue in recorded runs too; the tests assert against that.
func (r *ShardedReplica) QueryCacheStats() (hits, misses uint64) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	for _, sh := range r.gen.Load().shards {
		h, m := sh.QueryCacheStats()
		hits += h
		misses += m
	}
	hits += r.mc.outs.hits.Load()
	misses += r.mc.outs.misses.Load()
	return hits, misses
}

// StateKey returns the canonical key of the replica's merged state —
// the oracle replicas are compared by, exactly as with
// Replica.StateKey. It is assembled from the per-shard state keys (each
// memoized against its shard's log version), so asking a settled
// replica again costs S version compares, no state serialization.
func (r *ShardedReplica) StateKey() string {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	if len(g.shards) == 1 {
		return g.shards[0].StateKey()
	}
	var b strings.Builder
	for s, sh := range g.shards {
		if s > 0 {
			b.WriteByte('|')
		}
		b.WriteString(sh.StateKey())
	}
	return b.String()
}

// Fingerprint returns the fingerprint of the update set the process
// holds: the sum of its shards' (Log.Fingerprint), at one cut.
// Two replicas of one cluster hold the same updates — and so the same
// merged state — exactly when their fingerprints are equal, whatever
// their shard counts and resize histories.
func (r *ShardedReplica) Fingerprint() Fingerprint {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	g := r.gen.Load()
	g.each((*sync.RWMutex).RLock)
	defer g.each((*sync.RWMutex).RUnlock)
	var fp Fingerprint
	for _, sh := range g.shards {
		f := sh.log.Fingerprint()
		fp.Count += f.Count
		fp.Sum += f.Sum
	}
	return fp
}

// Stats aggregates the per-shard replica counters: lengths and counts
// sum, and the clock is the process clock. Compacted counts what this
// process folded itself — by compaction and by resizes, retired
// generations included — at every shard count; a base adopted from a
// donor does not count.
func (r *ShardedReplica) Stats() Stats {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	var agg Stats
	for _, sh := range r.gen.Load().shards {
		st := sh.Stats()
		agg.LogLen += st.LogLen
		agg.TotalOps += st.TotalOps
		agg.Compacted += st.Compacted
		agg.LateInserts += st.LateInserts
		agg.DupDropped += st.DupDropped
		agg.Masked += st.Masked
		agg.SyncApplied += st.SyncApplied
		agg.Gated = st.Gated // the process's, which every shard reports
		agg.Folded += st.Folded
	}
	agg.Clock = r.clk.Now()
	agg.Compacted += r.movedCompacted
	return agg
}

// ResizeStats reports the resharding counters: resizes that changed
// the shard count, and live log entries replayed across shards by
// them.
func (r *ShardedReplica) ResizeStats() (resizes, movedEntries uint64) {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.resizes, r.movedEntries
}

// ForceCompact runs a compaction immediately on every shard (GC mode
// only).
func (r *ShardedReplica) ForceCompact() {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	for _, sh := range r.gen.Load().shards {
		sh.ForceCompact()
	}
}

// RetireProcess tells the process's stability tracker that a process
// crashed and will never issue updates again (see
// Replica.RetireProcess).
func (r *ShardedReplica) RetireProcess(j int) {
	if r.stab != nil {
		r.stab.Retire(j)
	}
}

// Resize re-partitions the replica's key space across newShards
// shards, live. It builds a fresh routing generation (new per-shard
// replicas with their own logs and engines, broadcasting under the next
// epoch), moves the process into it — folded at one horizon, the base
// split per key (spec.Partitionable.ExtractRange) and the live entries
// routed with timestamps intact — then atomically flips the router and
// rebuilds the merged-state cache. Updates and queries are excluded for
// the duration of the move; they are wait-free again the moment the
// flip lands.
//
// In-flight messages need no coordination: every broadcast carries its
// epoch (the sender's shard count), and the router lands cross-epoch
// deliveries in the shard that owns their key under the current table
// (see route). Replicas of one cluster may therefore resize at
// different times — convergence only requires that they all eventually
// run the same table.
//
// GC soundness across a staggered resize rests on the process's one
// stability tracker, which outlives the flip, and on the transports' one
// FIFO stream per process link: nothing in flight sorts at or below the
// horizon the new shards are seeded at. The causal gate is the process's
// and outlives the flip too.
//
// On a live (goroutine) transport a lone Resize would race concurrent
// deliveries against the move; use ResizeCluster, which coordinates
// all replicas and drains the network first. Resize panics for
// non-partitionable data types (there is nothing to re-partition).
func (r *ShardedReplica) Resize(newShards int) {
	if newShards <= 0 {
		panic("core: Resize needs at least one shard")
	}
	if r.part == nil {
		panic(fmt.Sprintf("core: %s is not partitionable; Resize requires per-key state", r.adt.Name()))
	}
	r.routeMu.Lock()
	defer r.routeMu.Unlock()
	r.resizeLocked(newShards)
}

// ResizeCluster resizes every replica of a cluster in lockstep: it
// acquires every replica's routing lock (stalling updates and queries
// cluster-wide), invokes drain to deliver everything in flight (the
// routers keep running — they never take the routing lock), then moves
// every replica's state and flips all routers before releasing. This
// is the resize path for live transports, where per-replica moves
// would otherwise race autonomous deliveries; pass the network's Drain
// as drain. On the simulated transport, staggered per-replica Resize
// calls with no drain are sound (the driver interleaves deliveries and
// moves in one goroutine) and exercise the cross-epoch routing far
// harder — the resize tests do exactly that.
func ResizeCluster(reps []*ShardedReplica, newShards int, drain func()) {
	if len(reps) == 0 {
		return
	}
	if newShards <= 0 {
		panic("core: ResizeCluster needs at least one shard")
	}
	for _, r := range reps {
		r.routeMu.Lock()
	}
	defer func() {
		for _, r := range reps {
			r.routeMu.Unlock()
		}
	}()
	if drain != nil {
		drain()
	}
	for _, r := range reps {
		r.resizeLocked(newShards)
	}
}

// resizeLocked performs the state transfer. Caller holds routeMu's
// write half; on a live transport the caller has also drained the
// network, so nothing touches the old shards during the move.
func (r *ShardedReplica) resizeLocked(newShards int) {
	old := r.gen.Load()
	if newShards == len(old.shards) {
		return
	}
	next := r.newGen(old.epoch+1, newShards)

	// The move is the old generation folded at the process horizon and
	// installed in the new one as a pull's snapshot is. The new bases are
	// merged exactly when the horizon is above the stability horizon, as
	// an adopted donor base is. A causal process's coverage must not fall:
	// a masking log's covers writes it dropped and stamps a pull raised.
	old.each((*sync.RWMutex).RLock)
	next.each((*sync.RWMutex).Lock)
	stable, bases := old.horizonsLocked()
	sd := old.foldLocked(max(stable, bases))
	next.installLocked(sd, next.splitBase(sd.base), next.split(sd.entries), bases > stable)
	if r.causal {
		held := old.heldLocked()
		for _, sh := range next.shards {
			sh.originMax.Merge(held)
		}
	}
	next.each((*sync.RWMutex).Unlock)
	// What the old generation folded stays counted: its shards' own
	// compactions and the live entries this fold took in.
	for _, o := range old.shards {
		r.movedCompacted += o.compacted + uint64(len(o.log.unmasked()))
	}
	r.movedCompacted -= uint64(len(sd.entries))
	old.each((*sync.RWMutex).RUnlock)
	r.movedEntries += uint64(len(sd.entries))

	// Flip the router, then rebuild the merged-state cache for the new
	// generation: every stale contribution is dropped and the output
	// memos are invalidated by bumping the fold generation.
	r.gen.Store(next)
	r.resizes++
	mc := &r.mc
	mc.mu.Lock()
	mc.vers = make([]uint64, newShards)
	mc.parts = make([]spec.State, newShards)
	mc.merged = nil
	mc.gen++
	mc.mu.Unlock()
}

// ShardedCluster builds n sharded replicas sharing one transport, all
// with the same shard count and options.
func ShardedCluster(n, shards int, adt spec.UQADT, net transport.ResizableNetwork, opt ClusterOptions) []*ShardedReplica {
	reps := make([]*ShardedReplica, n)
	for i := 0; i < n; i++ {
		reps[i] = NewShardedReplica(ShardedConfig{
			ID: i, N: n, Shards: shards, ADT: adt, Codec: opt.Codec, Net: net,
			NewEngine: opt.NewEngine, GC: opt.GC, GCEvery: opt.GCEvery,
			Recorder: opt.Recorder, Causal: opt.Causal,
		})
	}
	return reps
}
