package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"updatec/internal/clock"
	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Replica is one process's instance of Algorithm 1: the universal
// strong update consistent implementation of an arbitrary UQ-ADT.
//
//	update(u): clock++; broadcast (clock, id, u)          (lines 4–7)
//	on receive (cl, j, u): clock = max(clock, cl);
//	                       updates ∪= {(cl, j, u)}        (lines 8–11)
//	query(q):  clock++; replay updates sorted by (cl, j);
//	           return G(state, q)                         (lines 12–19)
//
// Every operation completes using only local state — the replica never
// waits for the network — so the implementation is wait-free and
// tolerates any number of crashes (Proposition 4). The paper's sender
// receives its own broadcast instantaneously; here the step that stamps
// an update performs that receive itself (UpdateTimestamped), and the
// copy the transport hands back is dropped (handle).
//
// A Replica is safe for concurrent use. Mutating steps (update
// issuance, delivery, compaction) hold the write half of an RW mutex,
// modeling the paper's sequential process; queries that can be served
// without touching engine-internal caches (Engine.StateConcurrent) run
// under the read half, concurrently with each other. The logical clock
// is atomic so those readers can still stamp their query events.
// Writers additionally hold the process's writer token from the stamp
// until their broadcast returns, so the process sends in stamp order.
// The clock, the token and the stability tracker belong to the process
// (process): the shards of a ShardedReplica share them.
type Replica struct {
	// sendMu is the process's writer token (process.sendMu).
	sendMu  *sync.Mutex
	mu      sync.RWMutex
	id      int
	n       int
	adt     spec.UQADT
	wire    messageCodec
	clk     *clock.AtomicLamport
	log     *Log
	engine  Engine
	net     transport.Network
	stab    *clock.Stability
	gc      bool
	gcEvery int
	sinceGC int
	rec     *history.Recorder
	// originMax[j] is the highest update clock delivered from process
	// j; sessions use it (together with the compaction horizon) to
	// decide whether this replica covers a client's observations.
	originMax clock.Vector
	// lateInserts counts inserts that did not land at the log tail —
	// the "very late messages" of §VII-C that force engines to redo
	// work.
	lateInserts uint64
	compacted   uint64
	// dupDrops counts exact-duplicate arrivals skipped by the log
	// (post-heal redelivery of entries anti-entropy already applied,
	// injected per-link duplication); syncApplied counts entries landed
	// by ApplySync/MergeSnapshot.
	dupDrops    uint64
	syncApplied uint64
	// enc is the reusable encode scratch buffer (guarded by mu); the
	// outgoing payload is the only allocation an Update performs.
	enc []byte
	// keyMemo caches adt.KeyState of the current state (StateKey); it is
	// valid while keyMemoOK and keyMemoVer matches the log's version (the
	// state is a pure function of base + live entries).
	keyMemo    string
	keyMemoVer uint64
	keyMemoOK  bool
	// qkeyer is non-nil when the spec canonicalizes query inputs
	// (spec.QueryKeyer); it enables the query-output cache below.
	qkeyer spec.QueryKeyer
	qc     queryCache
	// causal gates visibility (Config.Causal, gate.go): pending holds
	// peer updates whose dependencies are not covered yet, sorted by
	// stamp; gated counts the arrivals that had to wait; seen[j] counts
	// process j's updates visible here.
	causal  bool
	pending []gatedEntry
	gated   uint64
	seen    clock.Vector
}

// maxQueryCacheEntries bounds the per-replica query-output cache; when
// one log version accumulates more distinct query keys the cache is
// wiped and refilled (the map storage is reused).
const maxQueryCacheEntries = 64

// queryCache memoizes query outputs against the log version. The
// output of a query is a pure function of (log contents, query input);
// the log's mutation counter changes whenever the contents do and
// spec.QueryKeyer canonicalizes the input, so a cached output is valid
// exactly while the version is unchanged — invalidation is a version
// compare on lookup, never an explicit flush on the write path.
//
// The cache has its own RW mutex so hits — the read-mostly common
// case — proceed concurrently (lookups under the read half, counters
// atomic); only a store takes it exclusively. ver only ever stores
// the version current at store time (the storing reader holds the
// replica's shared lock, so the log cannot move under it).
type queryCache struct {
	mu           sync.RWMutex
	ver          uint64
	m            map[spec.QueryCacheKey]spec.QueryOutput
	hits, misses atomic.Uint64
}

// lookup returns the cached output for (ver, key), if present.
func (c *queryCache) lookup(ver uint64, key spec.QueryCacheKey) (spec.QueryOutput, bool) {
	c.mu.RLock()
	var out spec.QueryOutput
	ok := false
	if c.ver == ver && c.m != nil {
		out, ok = c.m[key]
	}
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return out, ok
}

// store records the output computed for (ver, key). Entries from older
// versions are wiped wholesale — they can never be read again, because
// the log version only grows.
func (c *queryCache) store(ver uint64, key spec.QueryCacheKey, out spec.QueryOutput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[spec.QueryCacheKey]spec.QueryOutput, maxQueryCacheEntries)
	}
	if c.ver != ver || len(c.m) >= maxQueryCacheEntries {
		clear(c.m)
		c.ver = ver
	}
	c.m[key] = out
}

// process is what the replicas of one process share: a ShardedReplica's
// shards are one process of Algorithm 1, so they stamp with one Lamport
// clock, send under one writer token and compact at one stability
// horizon. On a FIFO link a stamp from process j proves that j's earlier
// stamps have arrived, whatever shard they were for, so one tracker fed
// by every shard's deliveries is sound — given that j sends in stamp
// order across all its shards, which the one token guarantees.
type process struct {
	clk clock.AtomicLamport
	// stab is the stability tracker; nil without GC.
	stab *clock.Stability
	// sendMu is the writer token: writeStep holds it across stamp and
	// broadcast, so concurrent writers on any shard hand the transport
	// their stamps in the order they were issued — the per-origin FIFO
	// that stability-based compaction relies on (tailLocked). Lock
	// order is sendMu → Replica.mu; nothing else takes sendMu.
	sendMu sync.Mutex
}

func newProcess(n, id int, gc bool) *process {
	p := &process{}
	if gc {
		p.stab = clock.NewStability(n, id)
	}
	return p
}

// Config assembles a Replica.
type Config struct {
	// ID is the process id (0 ≤ ID < N); ids are unique and totally
	// ordered, as the timestamp tie-break requires.
	ID int
	// N is the number of processes.
	N int
	// ADT is the sequential specification.
	ADT spec.UQADT
	// Codec serializes updates for broadcast. Nil means the ADT itself
	// implements spec.Codec (true for every built-in spec); a spec
	// defined through the public kit may carry a separate codec instead.
	Codec spec.Codec
	// Net is the broadcast transport shared by the cluster.
	Net transport.Network
	// Engine selects the query engine; nil means DefaultEngine(ADT).
	Engine Engine
	// GC enables stability-based log compaction. It requires a FIFO
	// transport (see Log.Insert) and piggybacks a reached-clock vector
	// on every update message.
	GC bool
	// GCEvery triggers a compaction attempt every GCEvery landed updates
	// — deliveries and the replica's own — (default 32) when GC is
	// enabled.
	GCEvery int
	// Recorder, when set, records this replica's operations for the
	// consistency deciders.
	Recorder *history.Recorder
	// Causal gates visibility on causal order (gate.go): each update is
	// broadcast behind its issuer's dependency vector, and a peer's update
	// lands only once this replica covers that vector.
	Causal bool
}

// NewReplica builds the replica and attaches it to the transport.
func NewReplica(cfg Config) *Replica {
	return newReplica(cfg, newProcess(cfg.N, cfg.ID, cfg.GC))
}

// newReplica is NewReplica as one shard of process p: a ShardedReplica
// passes every shard the process's clock, writer token and tracker.
func newReplica(cfg Config, p *process) *Replica {
	codec := cfg.Codec
	if codec == nil {
		codec, _ = cfg.ADT.(spec.Codec)
	}
	if codec == nil {
		panic(fmt.Sprintf("core: %s implements no spec.Codec and none was configured", cfg.ADT.Name()))
	}
	eng := cfg.Engine
	if eng == nil {
		eng = DefaultEngine(cfg.ADT)
	}
	gcEvery := cfg.GCEvery
	if gcEvery <= 0 {
		gcEvery = 32
	}
	r := &Replica{
		id:        cfg.ID,
		n:         cfg.N,
		adt:       cfg.ADT,
		wire:      newMessageCodec(codec),
		clk:       &p.clk,
		stab:      p.stab,
		sendMu:    &p.sendMu,
		log:       NewLog(cfg.ADT),
		engine:    eng,
		net:       cfg.Net,
		gc:        cfg.GC,
		gcEvery:   gcEvery,
		rec:       cfg.Recorder,
		originMax: clock.NewVector(cfg.N),
		causal:    cfg.Causal,
	}
	if cfg.Causal {
		r.seen = clock.NewVector(cfg.N)
	}
	r.qkeyer, _ = cfg.ADT.(spec.QueryKeyer)
	if m, ok := cfg.ADT.(spec.Masking); ok {
		r.log.setMask(m.MaskKey)
	}
	r.engine.Bind(cfg.ADT, r.log)
	r.net.Attach(cfg.ID, r.handle)
	return r
}

// ID returns the process id.
func (r *Replica) ID() int { return r.id }

// ADT returns the replica's sequential specification.
func (r *Replica) ADT() spec.UQADT { return r.adt }

// Update implements lines 4–7 of Algorithm 1: stamp the update with
// (clock+1, id), insert it in the replica's own log and reliably
// broadcast it (UpdateTimestamped, minus the returned stamp), so the
// update is locally visible and sent when Update returns — whatever the
// transport does with the broadcast: an update issued while the process
// is crashed still lands here, and anti-entropy spreads it after a
// recovery.
func (r *Replica) Update(u spec.Update) { r.UpdateTimestamped(u) }

// Query implements lines 12–19 of Algorithm 1: advance the clock and
// evaluate the query on the state derived from the sorted update list.
//
// When neither recording nor GC bookkeeping needs exclusive access and
// the engine can produce its state without mutating internal caches,
// the query runs under the shared lock, concurrently with other
// queries; the paper's wait-free claim then comes with read
// parallelism on the hot path.
//
// On that path, outputs of cacheable queries (spec.QueryKeyer) are
// memoized against the log version: a repeat read of a settled replica
// is a version compare plus a map hit, with no state walk and no
// allocation. Because a cached output may be returned to several
// callers, query outputs must be treated as immutable — which the rest
// of the system already assumes (they are canonical values, compared
// and rendered, never edited in place).
func (r *Replica) Query(in spec.QueryInput) spec.QueryOutput {
	out, _ := r.queryCovered(nil, in)
	return out
}

// queryCovered is the query path shared by Query and SessionQuery.
// With cover == nil it is a plain query. With a non-nil cover vector
// the replica must additionally cover it — (nil, false) otherwise, and
// nothing is evaluated — and the replica's coverage is absorbed into
// cover in place before serving; the check, the absorb, and the
// (cacheable) query share one lock acquisition, so a covered session
// read costs a raw read.
func (r *Replica) queryCovered(cover clock.Vector, in spec.QueryInput) (spec.QueryOutput, bool) {
	key, cacheable := spec.QueryCacheKey{}, false
	if r.qkeyer != nil {
		key, cacheable = r.qkeyer.QueryInputKey(in)
	}
	r.mu.RLock()
	if cover != nil {
		if !r.coveredLocked(cover) {
			r.mu.RUnlock()
			return nil, false
		}
		r.absorbLocked(cover)
	}
	if cacheable {
		// The version is pinned while the shared lock is held
		// (mutations take the exclusive half), so the lookup, the
		// state derivation and the store below all speak about the
		// same log contents.
		ver := r.log.Version()
		if out, ok := r.qc.lookup(ver, key); ok {
			r.queryTickShared(in, out)
			r.mu.RUnlock()
			return out, true
		}
		if s, ok := r.engine.StateConcurrent(); ok {
			out := r.adt.Query(s, in)
			r.qc.store(ver, key, out)
			r.queryTickShared(in, out)
			r.mu.RUnlock()
			return out, true
		}
	} else if s, ok := r.engine.StateConcurrent(); ok {
		out := r.adt.Query(s, in)
		r.queryTickShared(in, out)
		r.mu.RUnlock()
		return out, true
	}
	r.mu.RUnlock()
	// The engine needs the exclusive lock to rebuild its state;
	// coverage is already absorbed, and re-checking below is
	// harmless (coverage is monotone, the absorb a running max).
	r.mu.Lock()
	defer r.mu.Unlock()
	if cover != nil {
		if !r.coveredLocked(cover) {
			return nil, false
		}
		r.absorbLocked(cover)
	}
	cl := r.clk.Tick()
	if r.stab != nil {
		r.stab.ObserveSelf(cl)
	}
	out := r.adt.Query(r.engine.State(), in)
	if r.rec != nil {
		r.rec.QueryDeps(r.id, in, out, r.depsLocked())
	}
	if cacheable {
		r.qc.store(r.log.Version(), key, out)
	}
	return out, true
}

// queryTickShared performs the per-query bookkeeping of lines 12–13 on
// the shared-lock path: the clock tick, the stability tracker's
// self-observation (the "stability tick" — Stability is a set of
// atomic running maxima, so feeding it needs no exclusive access), and
// the recorded query event (the recorder has its own lock). Before
// this, recording or GC forced every query onto the exclusive path,
// silently bypassing the output cache; now cache hits keep both modes'
// bookkeeping intact, so recorded and GC replicas get the read-path
// win too.
func (r *Replica) queryTickShared(in spec.QueryInput, out spec.QueryOutput) {
	cl := r.clk.Tick()
	if r.stab != nil {
		r.stab.ObserveSelf(cl)
	}
	if r.rec != nil {
		r.rec.QueryDeps(r.id, in, out, r.depsLocked())
	}
}

// QueryCacheStats reports the query-output cache counters (hits,
// misses); the read-path benchmarks and tests assert against them.
func (r *Replica) QueryCacheStats() (hits, misses uint64) {
	return r.qc.hits.Load(), r.qc.misses.Load()
}

// ReadState invokes f with the replica's current state under the
// replica's lock (shared when the engine can serve readers
// concurrently, exclusive otherwise). The state is read-only and valid
// only for the duration of the call — f must copy whatever it needs.
// ShardedReplica uses it to fold per-shard states into a merged query
// state without racing concurrent deliveries.
func (r *Replica) ReadState(f func(spec.State)) {
	r.ReadStateAt(func(s spec.State, _ uint64) { f(s) })
}

// ReadStateAt is ReadState with the log version the state derives
// from: the version is read under the same lock as the state, so the
// pair is consistent. The sharded merged-state cache keys each shard's
// cached contribution on it.
func (r *Replica) ReadStateAt(f func(s spec.State, ver uint64)) {
	r.mu.RLock()
	if s, ok := r.engine.StateConcurrent(); ok {
		f(s, r.log.Version())
		r.mu.RUnlock()
		return
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	f(r.engine.State(), r.log.Version())
}

// Version returns the replica's log version, a mutation counter: two
// equal Version results bracket a window with no log mutation, and so
// nothing query-observable changed (the state is a pure function of the
// log). It is local to this replica; Fingerprint compares replicas.
func (r *Replica) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.log.Version()
}

// QueryOmega evaluates a query and records it as the replica's
// converged (ω) observation. The simulation harness calls it once per
// replica after quiescence.
func (r *Replica) QueryOmega(in spec.QueryInput) spec.QueryOutput {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clk.Tick()
	out := r.adt.Query(r.engine.State(), in)
	if r.rec != nil {
		r.rec.QueryOmegaDeps(r.id, in, out, r.depsLocked())
	}
	return out
}

// handle implements lines 8–11 of Algorithm 1 for a peer's broadcast: a
// step, the sender's updates of one write step. A delivery from
// the replica itself — the transports hand every broadcast back to its
// sender inline — carries nothing new: the updates were inserted by the
// step that stamped them (writeStep), before the broadcast went out. The
// payload is decoded completely before the lock is taken; one that does
// not decode lands nothing and is raised as transport.BadPayload. The
// step, in stamp order by construction, lands under one lock hold with
// InsertDedup's semantics, entry by entry (mergeLocked), and every entry
// feeds the stability tail as a delivery of its own would. At causal
// consistency the payload is a dependency vector and a step of one, and
// the update passes the gate (gateLocked).
//
// Transports may call handle concurrently (TCP runs one receive goroutine
// per peer link), so everything decoded lives on this call's stack or in
// its own allocation, never in scratch shared on the Replica.
func (r *Replica) handle(from int, payload []byte) {
	if from == r.id {
		return
	}
	var deps clock.Vector
	if r.causal {
		var err error
		if deps, payload, err = decodeDeps(payload, r.n); err != nil {
			panic(r.badPayload(from, err))
		}
	}
	var one [1]Entry
	step, err := r.wire.decodeStep(one[:0], payload)
	switch {
	case err != nil:
	case deps != nil && len(step) != 1:
		err = fmt.Errorf("a causal payload carries %d updates, want 1", len(step))
	case deps != nil && (step[0].TS.Proc < 0 || step[0].TS.Proc >= r.n):
		err = fmt.Errorf("update %s: origin out of range", step[0].TS)
	}
	if err != nil {
		panic(r.badPayload(from, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if deps != nil {
		r.gateLocked(gatedEntry{Entry: step[0], deps: deps})
		return
	}
	if len(step) == 1 {
		r.insertLocked(step[0].TS, step[0].U)
	} else {
		r.mergeLocked(step)
	}
	for i := range step {
		r.tailLocked(step[i].TS)
	}
}

func (r *Replica) badPayload(from int, err error) transport.BadPayload {
	return transport.BadPayload{Err: fmt.Errorf("core: replica %d: corrupt payload from %d: %w", r.id, from, err)}
}

// tailLocked is the stability/GC tail of the two steps that land one
// update from one sender — a peer's delivery and the replica's own
// update — run after the insert; ts is the stamp landed. Caller holds the
// exclusive lock.
//
// Stability only trusts *direct* observations: a sender's update stamps
// strictly increase and it sends them in that order (writeStep's writer
// token, one per process), so on a FIFO link — one stream per pair of
// processes, whatever the shard — the highest stamp delivered from a
// sender bounds every still-in-flight message from it, on every shard.
// Hearsay (a vector piggybacked by a third process) is NOT sound here —
// another process's knowledge of j's clock can overtake j's own
// in-flight messages on our link, which would let the horizon pass an
// update that has not arrived yet.
func (r *Replica) tailLocked(ts clock.Timestamp) {
	if r.stab == nil {
		return
	}
	r.stab.ObservePeer(ts.Proc, ts.Clock)
	// Landing advanced our own clock too, and every stamp we issued at or
	// below it is in the log (UpdateTimestamped stamps and inserts under
	// one hold), so our own reached-clock may follow — this lets passive
	// (query-only) replicas compact.
	r.stab.ObserveSelf(r.clk.Now())
	r.sinceGC++
	if r.sinceGC >= r.gcEvery {
		r.sinceGC = 0
		r.compact(r.stab.Horizon())
	}
}

// insertLocked lands a timestamped update in the log, the clock, the
// origin coverage and the engine, reporting whether the entry was new.
// An exact duplicate — legal on the repair paths, see Log.InsertDedup —
// is counted and skipped: no version bump, no engine notification (the
// state is unchanged). So is an arrival its key's winner masks; it still
// raises the origin coverage, because the replica's state already
// reflects it — overwritten. Caller holds the exclusive lock.
func (r *Replica) insertLocked(ts clock.Timestamp, u spec.Update) bool {
	r.clk.Observe(ts.Clock)
	r.observeOrigin(ts)
	e := Entry{TS: ts, U: u}
	at, ok := r.log.InsertDedup(e)
	if !ok {
		if !r.log.masks(e) {
			r.dupDrops++
		}
		return false
	}
	if at != r.log.Len()-1 {
		r.lateInserts++
	}
	r.engine.Inserted(at)
	if r.log.mask != nil {
		r.purgeLocked()
	}
	return true
}

// purgeLocked drops a masking log's dead entries once they outnumber its
// winners (Log.purge) and rebinds the engine to the rewritten suffix.
// Caller holds the exclusive lock.
func (r *Replica) purgeLocked() {
	if r.log.purge() {
		r.engine.Bind(r.adt, r.log)
	}
}

// mergeLocked is insertLocked for a whole batch in log order — a sync
// reply, a resharding seed — landed by one Log.MergeSorted with the same
// clock, coverage and counter effects as inserting the entries one by
// one. The engine hears of the lowest landing index only: everything it
// folded below that is untouched, and no engine tracks more than the
// lowest position disturbed since it last caught up. Returns how many
// entries were new. Caller holds the exclusive lock.
func (r *Replica) mergeLocked(batch []Entry) int {
	for i := range batch {
		r.observeOrigin(batch[i].TS)
	}
	if n := len(batch); n > 0 {
		// The batch is sorted, so its last entry carries its highest clock.
		r.clk.Observe(batch[n-1].TS.Clock)
	}
	first, landed, late, dups := r.log.MergeSorted(batch)
	r.dupDrops += uint64(dups)
	r.lateInserts += uint64(late)
	if landed > 0 {
		r.engine.Inserted(first)
		if r.log.mask != nil {
			r.purgeLocked()
		}
		r.releaseLocked()
	}
	return landed
}

// observeOrigin raises the origin coverage to an update this replica
// holds.
func (r *Replica) observeOrigin(ts clock.Timestamp) {
	if ts.Proc >= 0 && ts.Proc < len(r.originMax) && ts.Clock > r.originMax[ts.Proc] {
		r.originMax[ts.Proc] = ts.Clock
	}
}

// Absorb inserts an already-timestamped update directly into the
// replica's log, with the duplicate and masking semantics of a delivery,
// but without one's stability tail: it never broadcasts and never feeds
// the stability tracker. No step of the replica calls it — a
// cross-epoch delivery lands through the router, which does feed the
// tracker (ShardedReplica.route) — so it is the way to build a log by
// hand, stamps chosen by the caller, for tests and measurements.
func (r *Replica) Absorb(ts clock.Timestamp, u spec.Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertLocked(ts, u)
}

// compact folds the entries with a clock at or below horizon into the
// log base. Caller holds the lock.
func (r *Replica) compact(horizon uint64) {
	n := r.log.CompactBelow(horizon)
	if n > 0 {
		r.compacted += uint64(n)
		r.engine.Compacted(n)
	}
}

// ForceCompact runs a compaction immediately (the harness uses it to
// measure GC effects deterministically).
func (r *Replica) ForceCompact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stab != nil {
		r.compact(r.stab.Horizon())
	}
}

// RetireProcess tells the stability tracker that a process crashed and
// will never issue updates again, unblocking the GC horizon (see
// clock.Stability.Retire).
func (r *Replica) RetireProcess(j int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stab != nil {
		r.stab.Retire(j)
	}
}

// Stats reports replica-side counters for the experiment tables.
type Stats struct {
	// LogLen is the live log length; Compacted counts GC'd entries.
	LogLen    int
	TotalOps  int
	Compacted uint64
	// LateInserts counts out-of-order arrivals (they force engine
	// recomputation).
	LateInserts uint64
	// DupDropped counts exact-duplicate arrivals skipped by the log;
	// Masked counts arrivals a masking log dropped below their key's
	// winner; SyncApplied counts entries landed by anti-entropy repair;
	// Gated counts arrivals a causal replica held back until their
	// dependencies landed.
	DupDropped  uint64
	Masked      uint64
	SyncApplied uint64
	Gated       uint64
	Clock       uint64
	// Folded is how many live entries the engine's retained state
	// covers (Engine.Folded): 0 on a replica no query has touched.
	Folded int
}

// Stats returns a snapshot of the replica counters.
func (r *Replica) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	folded, _ := r.engine.Folded()
	return Stats{
		LogLen:      r.log.Len(),
		TotalOps:    r.log.TotalLen(),
		Compacted:   r.compacted,
		LateInserts: r.lateInserts,
		DupDropped:  r.dupDrops,
		Masked:      r.log.masked,
		SyncApplied: r.syncApplied,
		Gated:       r.gated,
		Clock:       r.clk.Now(),
		Folded:      folded,
	}
}

// StateKey returns the canonical key of the replica's current state —
// the oracle that replicas, clusters and engines are compared by: equal
// keys mean equal states, whatever produced them. The key is memoized
// against the log's version (the state is a pure function of the log),
// so asking a settled replica again costs one version compare; asking a
// moving one derives and serializes the whole state, under the
// exclusive lock. Fingerprint answers "same updates as that replica?"
// in O(1) instead.
//
// StateKey never makes the engine retain a state it does not already
// hold: convergence polling reaches replicas no query ever touched, and
// installing a fold there would pin a second copy of the object for
// nothing. An engine that holds one is asked for it (catching it up is
// cheaper than a replay); otherwise the log is replayed into a
// throwaway state.
func (r *Replica) StateKey() string {
	r.mu.RLock()
	if r.keyMemoOK && r.keyMemoVer == r.log.Version() {
		k := r.keyMemo
		r.mu.RUnlock()
		return k
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	ver := r.log.Version()
	if r.keyMemoOK && r.keyMemoVer == ver {
		return r.keyMemo
	}
	var s spec.State
	if _, held := r.engine.Folded(); held {
		s = r.engine.State()
	} else {
		s = r.log.Replay()
	}
	r.keyMemo = r.adt.KeyState(s)
	r.keyMemoVer = ver
	r.keyMemoOK = true
	return r.keyMemo
}

// Fingerprint returns the fingerprint of the update set this replica
// holds (Log.Fingerprint): O(1), under the shared lock. Two replicas of
// one cluster with equal fingerprints hold the same updates and so the
// same state; fingerprints of independent clusters are not comparable,
// because the same updates carry different timestamps there.
func (r *Replica) Fingerprint() Fingerprint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.log.Fingerprint()
}

// UpdateTimestamped is Update returning the timestamp assigned to the
// update; sessions use it to record their own writes. It is the write
// step (writeStep) for one update.
func (r *Replica) UpdateTimestamped(u spec.Update) clock.Timestamp {
	one := [1]spec.Update{u}
	return r.writeStep(one[:])
}

// UpdateBatch issues us, in order, as one write step: the updates take
// consecutive stamps, land, and leave in one broadcast — the same
// stamped updates, landed in the same order, as len(us) calls of Update,
// for one lock hold, one clock operation and one message. The wire
// daemon feeds it every update a client has already sent.
func (r *Replica) UpdateBatch(us []spec.Update) {
	if len(us) > 0 {
		r.writeStep(us)
	}
}

// writeStep is the one write step, lines 4–7 of Algorithm 1 for k ≥ 1
// updates; it returns the first one's stamp. One exclusive hold reserves
// k consecutive stamps (TickN) and, update by update in stamp order,
// records it, lands it in the replica's own log — the only way a replica
// learns of its own update, so no other step of this replica (a tied peer
// delivery, a compaction) ever sees the clock at a stamp without its
// entry in the log — encodes it and runs the stability/GC tail. The k
// updates leave as one step; at causal consistency each leaves alone, a
// step of one behind its own dependency vector. The broadcast goes out
// after the unlock, so queries and deliveries never wait on the network.
// The process's writer token is held from the stamp until the broadcast
// returns: concurrent writers, on any shard, send in the order they
// stamped.
func (r *Replica) writeStep(us []spec.Update) clock.Timestamp {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	k := uint64(len(us))
	first := clock.Timestamp{Clock: r.clk.TickN(k) - k + 1, Proc: r.id}
	var gated [][]byte // causal payloads, one per update
	r.enc = r.enc[:0]
	if !r.causal {
		r.enc = appendStepHeader(r.enc, first, len(us))
	}
	for i, u := range us {
		ts := clock.Timestamp{Clock: first.Clock + uint64(i), Proc: r.id}
		if r.rec != nil {
			r.rec.UpdateDeps(r.id, u, r.depsLocked())
		}
		if r.causal {
			r.enc = appendStepHeader(r.appendDepsLocked(r.enc[:0]), ts, 1)
		}
		r.insertLocked(ts, u)
		r.enc = mustEncode(r.wire.appendStepUpdate(r.enc, u))
		if r.causal {
			gated = append(gated, bytes.Clone(r.enc))
		}
		r.tailLocked(ts)
	}
	var payload []byte
	if !r.causal {
		payload = bytes.Clone(r.enc)
	}
	r.mu.Unlock()
	if payload != nil {
		r.broadcast(len(us), payload)
	}
	for _, p := range gated {
		r.broadcast(1, p)
	}
	return first
}

// stepBroadcaster is a network whose send queues are bounded in updates
// (transport.TCPNetwork): a step of count updates goes out with its
// count, so a stalled peer holds back the same number of updates however
// the writer batched. The payload stays opaque to it.
type stepBroadcaster interface {
	BroadcastStep(from, shard, epoch, count int, payload []byte)
}

// broadcast hands the transport a payload carrying count updates, with
// the replica's shard and epoch tags when it has them (epochChannel):
// with the count where the network bounds its queues in updates, as a
// plain broadcast otherwise.
func (r *Replica) broadcast(count int, payload []byte) {
	net, shard, epoch := r.net, 0, 0
	if c, ok := net.(epochChannel); ok {
		net, shard, epoch = c.net, c.shard, c.epoch
	}
	if rb, ok := net.(stepBroadcaster); ok {
		rb.BroadcastStep(r.id, shard, epoch, count, payload)
		return
	}
	r.net.Broadcast(r.id, payload)
}

// Cluster builds n replicas sharing one transport, all with the same
// engine constructor and options.
func Cluster(n int, adt spec.UQADT, net transport.Network, opt ClusterOptions) []*Replica {
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		var eng Engine
		if opt.NewEngine != nil {
			eng = opt.NewEngine()
		}
		reps[i] = NewReplica(Config{
			ID: i, N: n, ADT: adt, Codec: opt.Codec, Net: net,
			Engine: eng, GC: opt.GC, GCEvery: opt.GCEvery,
			Recorder: opt.Recorder, Causal: opt.Causal,
		})
	}
	return reps
}

// ClusterOptions configures Cluster.
type ClusterOptions struct {
	// NewEngine builds each replica's engine (nil → DefaultEngine).
	NewEngine func() Engine
	// Codec overrides the update codec (nil → the ADT's own, as in
	// Config.Codec).
	Codec spec.Codec
	// GC enables stability-based compaction (FIFO transport required).
	GC bool
	// GCEvery is the compaction period in deliveries.
	GCEvery int
	// Recorder records all replicas' operations when set.
	Recorder *history.Recorder
	// Causal gates visibility on causal order (Config.Causal).
	Causal bool
}
