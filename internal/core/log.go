// Package core implements the paper's primary contribution: the
// universal construction of strong update consistent objects
// (Algorithm 1, §VII-B) for arbitrary UQ-ADTs in wait-free asynchronous
// crash-prone message-passing systems, the query-engine optimizations
// sketched in §VII-C (cached intermediate states and undo-redo
// splicing), and two ways of keeping the update log small:
// stability-based garbage collection, and — for a spec.Masking spec —
// Algorithm 2's observation that an overwritten register value can never
// be read again, which keeps one log entry per register. Replica is the
// only replica type: the causal consistency level is the same replica
// with gated visibility (gate.go).
package core

import (
	"fmt"
	"slices"
	"sort"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// Entry is one timestamped update of Algorithm 1's updates_i list: a
// triple (cl, j, u) ordered by its (cl, j) timestamp.
type Entry struct {
	TS clock.Timestamp
	U  spec.Update
}

// Log is the sorted list updates_i of Algorithm 1, extended with an
// optional compacted stable prefix: entries whose timestamps are below
// the stability horizon are folded into a base snapshot and dropped
// (§VII-C: "after some time old messages can be garbage collected").
//
// The live suffix is stored as buf[head:]. Compaction advances head
// instead of reallocating the suffix, so folding k stable entries is
// O(k) state application plus O(1) bookkeeping; the dead prefix is
// reclaimed in bulk once it dominates the buffer, keeping the
// amortized cost per compacted entry constant.
type Log struct {
	adt spec.UQADT
	// base is the state reached by the compacted prefix; nil means the
	// prefix is empty and the base is the initial state.
	base spec.State
	// baseLen counts compacted updates, for reporting.
	baseLen int
	// baseTS is the largest timestamp folded into base.
	baseTS clock.Timestamp
	// buf is the backing array; buf[head:] is the live suffix, sorted
	// by timestamp. buf[:head] holds zeroed, already-compacted slots.
	buf  []Entry
	head int
	// version increments on every mutation (insert, compaction,
	// restore). The state after base+suffix is a pure function of the
	// log, so a derivation cached at one version (Replica.StateKey's
	// canonical key, the query-output cache) stays valid while the
	// version is unchanged. It is replica-local: equal versions on two
	// replicas say nothing (Fingerprint compares across replicas).
	version uint64
	// sum is the wrapping sum of entryHash over every update this log has
	// landed, compacted ones included (see Fingerprint).
	sum uint64
	// seeded marks a base installed by SeedBase — a *merged* base whose
	// horizon is the minimum across several old shards' horizons. Only
	// such logs get the relaxed below-horizon guard (see belowHorizon);
	// a base built by this log's own CompactBelow keeps the strict one.
	seeded bool
	// mask is Algorithm 2's log policy (spec.Masking.MaskKey), installed
	// by the replica of a masking spec; nil otherwise. A masking log keeps
	// in winners the highest entry per mask key. An arrival that sorts
	// below its key's winner is dropped and counted in masked; one above
	// it lands, and the old winner becomes one of the dead entries —
	// still in the live suffix, where the engines' positions point, until
	// purge drops them. A masking log never compacts into a base.
	mask    func(u spec.Update) string
	winners map[string]Entry
	dead    int
	masked  uint64
	// merged marks a base installed by MergeSnapshot (anti-entropy's
	// snapshot fallback). Such a base proves containment at the *donor*:
	// everything at or below its horizon was delivered there and folded
	// in, so a later below-horizon arrival here is a redelivery of an
	// already-folded update — a healed link draining its queue — and is
	// dropped as a duplicate. Only a base built by this log's own
	// CompactBelow keeps the below-horizon panic: there, a low arrival
	// means our own stability tracker declared stability too early.
	merged bool
}

// NewLog returns an empty log for the given data type.
func NewLog(adt spec.UQADT) *Log {
	return &Log{adt: adt}
}

// setMask installs Algorithm 2's masking policy on an empty log.
func (l *Log) setMask(f func(u spec.Update) string) {
	l.mask, l.winners = f, map[string]Entry{}
}

// belowHorizon reports whether inserting ts under the compaction
// horizon would be a stability violation. Normally any ts not
// strictly above baseTS proves one, and that stays true for logs
// receiving cross-epoch traffic: a sender stamps every shard from its
// one process clock, so its stamps after a resize strictly exceed
// every direct observation this log's tracker took. A *seeded* base
// keeps a relaxed guard — only a strictly smaller clock is a
// violation. Its horizon is the minimum of several old shards'
// horizons, and every update at or below it was folded into one of
// their bases; since a (clock, proc) pair names one update, an arrival
// at the horizon's clock that passes this guard is a redelivery of a
// folded update, and landing it folds it twice (ROADMAP item 1's
// double fold).
func belowHorizon(l *Log, ts clock.Timestamp) bool {
	if l.seeded {
		return ts.Clock < l.baseTS.Clock
	}
	return !l.baseTS.Less(ts)
}

// masks reports whether e sorts below the winner of its mask key: a
// masked arrival, or a dead entry of the live suffix.
func (l *Log) masks(e Entry) bool {
	if l.mask == nil {
		return false
	}
	w, ok := l.winners[l.mask(e.U)]
	return ok && e.TS.Less(w.TS)
}

// win makes a landed entry the winner of its mask key; the entry it
// replaces is dead, and leaves the fingerprint.
func (l *Log) win(e Entry) {
	k := l.mask(e.U)
	if w, ok := l.winners[k]; ok {
		l.dead++
		l.sum -= entryHash(w.TS)
	}
	l.winners[k] = e
}

// unmasked is the live suffix without its dead entries: the entries a
// digest tallies, a sync reply sends and a snapshot carries. It is
// Entries itself unless the log holds dead entries, a copy then.
func (l *Log) unmasked() []Entry {
	if l.dead == 0 {
		return l.Entries()
	}
	out := make([]Entry, 0, len(l.winners))
	for _, e := range l.Entries() {
		if !l.masks(e) {
			out = append(out, e)
		}
	}
	return out
}

// purge rewrites a masking log's live suffix without its dead entries
// once they outnumber the winners, so the suffix stays within twice the
// key count and each landing pays O(1) amortised for it. It reports
// whether it rewrote the suffix; the positions an engine holds are then
// stale (Engine.Bind). Purged entries count as no longer live, like
// compacted ones.
func (l *Log) purge() bool {
	if l.dead <= len(l.winners) {
		return false
	}
	kept := l.buf[:0]
	for _, e := range l.buf[l.head:] {
		if !l.masks(e) {
			kept = append(kept, e)
		}
	}
	clear(l.buf[len(kept):])
	l.buf, l.head = kept, 0
	l.baseLen += l.dead
	l.dead = 0
	l.version++
	return true
}

// Len returns the number of live (non-compacted) entries.
func (l *Log) Len() int { return len(l.buf) - l.head }

// TotalLen returns the number of updates ever inserted, including
// compacted ones.
func (l *Log) TotalLen() int { return l.baseLen + l.Len() }

// Entries exposes the live suffix; callers must not mutate it.
func (l *Log) Entries() []Entry { return l.buf[l.head:] }

// Fingerprint summarizes the set of updates a log has ever landed:
// how many, and the wrapping sum of entryHash over their timestamps.
// Both are order-independent and neither changes when entries are
// compacted, so two logs that landed the same updates — in any delivery
// order, with duplicates dropped, through merges, compaction or a
// snapshot — carry equal fingerprints. A (clock, proc) pair names
// exactly one update as long as no replica reuses a stamp — one
// restarted empty, its clock back at 0, can — so equal fingerprints
// mean equal update sets (up to a 64-bit hash collision), and
// Algorithm 1's state is a function of that set: equal fingerprints
// mean equal states at O(1) per comparison, where comparing canonical
// state keys replays the log. A resharded log's seeded base carries no
// stamp sum (SeedBase), so its fingerprint undercounts what it holds,
// and the sharded layer reports none (ShardedReplica.Fingerprint).
//
// A masking log fingerprints its winners instead: the count of mask keys
// and the sum of entryHash over each key's winning stamp, updated
// whenever a winner is replaced. Its state is the fold of the winners
// (spec.Masking), so equal winner sets mean equal states, and replicas
// that landed the same updates hold the same winners whatever they
// masked on the way.
type Fingerprint struct {
	Count uint64
	Sum   uint64
}

// String renders the fingerprint as count:sum.
func (f Fingerprint) String() string { return fmt.Sprintf("%d:%016x", f.Count, f.Sum) }

// entryHash is one update's term in a fingerprint's sum.
func entryHash(ts clock.Timestamp) uint64 { return mix64(ts.Clock ^ mix64(uint64(ts.Proc))) }

// Fingerprint returns the fingerprint of every update the log has
// landed. O(1): the sum is kept on the landing paths.
func (l *Log) Fingerprint() Fingerprint {
	if l.mask != nil {
		return Fingerprint{Count: uint64(len(l.winners)), Sum: l.sum}
	}
	return Fingerprint{Count: uint64(l.TotalLen()), Sum: l.sum}
}

// baseSum is the part of the fingerprint's sum the compacted base
// accounts for — what a snapshot of this log carries beside its base.
func (l *Log) baseSum() uint64 {
	s := l.sum
	for _, e := range l.Entries() {
		s -= entryHash(e.TS)
	}
	return s
}

// Version returns the log's mutation counter. Two calls returning the
// same value bracket a window in which the log — and therefore every
// state derived from it — did not change.
func (l *Log) Version() uint64 { return l.version }

// Base returns the compacted-prefix snapshot (nil when empty) and the
// timestamp up to which the log was compacted.
func (l *Log) Base() (spec.State, clock.Timestamp) { return l.base, l.baseTS }

// BaseState returns a clone of the base state, or a fresh initial
// state when nothing was compacted.
func (l *Log) BaseState() spec.State {
	if l.base == nil {
		return l.adt.Initial()
	}
	return l.adt.Clone(l.base)
}

// Reserve grows the backing buffer so that at least n further in-order
// inserts proceed without reallocation.
func (l *Log) Reserve(n int) {
	live := l.Len()
	if cap(l.buf)-len(l.buf) >= n {
		return
	}
	nb := make([]Entry, live, live+n)
	copy(nb, l.buf[l.head:])
	l.buf, l.head = nb, 0
}

// Insert adds a timestamped update, keeping the list sorted, and
// returns the index at which it landed. An arrival in timestamp order —
// the common case on FIFO links, where each sender's stamps increase
// and interleavings are near-sorted — takes the O(1) append fast path;
// only genuinely late entries pay the binary search and suffix shift.
// Inserting an entry at or below the compaction horizon is an invariant
// violation (it would mean the stability tracker declared stability too
// early — e.g. GC enabled on a non-FIFO transport) and panics rather
// than silently corrupting the convergence order. Insert also panics on
// a duplicate timestamp; paths that legitimately see redelivery
// (anti-entropy sync followed by the healed link's own copy, per-link
// duplication faults) use InsertDedup instead.
func (l *Log) Insert(e Entry) int {
	at, ok := l.InsertDedup(e)
	if !ok {
		panic(fmt.Sprintf("core: duplicate timestamp %s — broadcast delivered twice?", e.TS))
	}
	return at
}

// InsertDedup is Insert tolerating exact duplicates: inserting an entry
// whose timestamp is already present leaves the log untouched and
// reports false. Duplicates are a legal event on the
// repair paths — a partition heals, anti-entropy syncs the missing
// suffix, and the cut's queued originals still deliver afterwards — and
// under injected per-link duplication. A duplicate can never take the
// fast tail path (an equal timestamp is not strictly greater), so the
// O(1) hot path is untouched. On a masking log an entry below its key's
// winner is dropped too, and counted as masked.
func (l *Log) InsertDedup(e Entry) (int, bool) {
	if l.masks(e) {
		l.masked++
		return 0, false
	}
	if l.base != nil && belowHorizon(l, e.TS) {
		if l.merged {
			// A merge-installed base provably contains everything under
			// its horizon (see the merged field): this is a redelivery
			// of a folded update, not a stability violation.
			return 0, false
		}
		panic(fmt.Sprintf("core: update %s arrived below compaction horizon %s — stability was not honored (is the transport FIFO?)",
			e.TS, l.baseTS))
	}
	live := l.buf[l.head:]
	n := len(live)
	if n == 0 || live[n-1].TS.Less(e.TS) {
		// Fast tail path: strictly above the current maximum.
		l.buf = append(l.buf, e)
		l.version++
		l.sum += entryHash(e.TS)
		if l.mask != nil {
			l.win(e)
		}
		return n, true
	}
	at := sort.Search(n, func(i int) bool {
		return e.TS.Less(live[i].TS)
	})
	if at > 0 && live[at-1].TS == e.TS {
		return at - 1, false
	}
	l.buf = append(l.buf, Entry{})
	live = l.buf[l.head:]
	copy(live[at+1:], live[at:])
	live[at] = e
	l.version++
	l.sum += entryHash(e.TS)
	if l.mask != nil {
		l.win(e)
	}
	return at, true
}

// SortEntries puts batch into log order, keeping equal entries in
// arrival order (the first of them is the one a merge keeps). A batch
// that is already ordered — a donor's reply, a peer's frame, another
// log's live suffix — costs one linear check.
func (l *Log) SortEntries(batch []Entry) {
	cmp := func(a, b Entry) int { return a.TS.Compare(b.TS) }
	if !slices.IsSortedFunc(batch, cmp) {
		slices.SortStableFunc(batch, cmp)
	}
}

// MergeSorted lands a whole batch that is already in log order (see
// SortEntries for callers that cannot promise it) and leaves the log
// exactly as InsertDedup would, entry by entry: an entry equal to a live
// one or to its predecessor in the batch is dropped as a duplicate, one
// below a merged base's horizon likewise, and below any other base it
// panics. The survivors are merged from the back, so the cost is
// O(len(batch) + displaced suffix) where the one-at-a-time path shifts
// the suffix once per entry — the difference between a linear and a
// quadratic partition repair. The buffer grows by append's policy, the
// version by the number landed and the fingerprint by what landed.
//
// It returns the lowest index an entry landed at (the one position a
// query engine needs to hear about), how many landed, how many of those
// sorted below the previous maximum (late inserts), and the duplicates.
// On a masking log the entries below their key's winner are dropped
// first (admit) and counted as masked, not as duplicates.
func (l *Log) MergeSorted(batch []Entry) (first, landed, late, dups int) {
	if rest := l.aboveBase(batch); len(rest) < len(batch) {
		if !l.merged {
			panic(fmt.Sprintf("core: update %s arrived below compaction horizon %s — stability was not honored (is the transport FIFO?)",
				batch[0].TS, l.baseTS))
		}
		batch, dups = rest, len(batch)-len(rest)
	}
	if l.mask != nil {
		batch, dups = l.admit(batch)
	}
	live := l.buf[l.head:]
	n := len(live)
	if len(batch) == 0 {
		return n, 0, 0, dups
	}
	// Nothing under lo moves or can equal a batch entry.
	lo := sort.Search(n, func(i int) bool { return !live[i].TS.Less(batch[0].TS) })
	// dupOf reports whether batch[j] repeats its predecessor.
	dupOf := func(j int) bool {
		if j == 0 || batch[j-1].TS.Less(batch[j].TS) {
			return false
		}
		if batch[j].TS.Less(batch[j-1].TS) {
			panic(fmt.Sprintf("core: MergeSorted batch out of log order at %s", batch[j].TS))
		}
		return true
	}
	// Pass 1, upwards: count what will land, so the buffer grows once.
	i := lo
	for j := range batch {
		for i < n && live[i].TS.Less(batch[j].TS) {
			i++
		}
		if dupOf(j) || i < n && !batch[j].TS.Less(live[i].TS) {
			dups++
			continue
		}
		landed++
		if i < n {
			late++
		}
	}
	if landed == 0 {
		return n, 0, 0, dups
	}
	// Pass 2, downwards: every live entry above a survivor moves once.
	// w-i is how many survivors are still to place.
	l.buf = append(l.buf, make([]Entry, landed)...)
	live = l.buf[l.head:]
	i, w := n-1, n+landed-1
	for j := len(batch) - 1; w > i; j-- {
		if dupOf(j) {
			continue
		}
		for i >= lo && batch[j].TS.Less(live[i].TS) {
			live[w] = live[i]
			i, w = i-1, w-1
		}
		if i >= lo && !live[i].TS.Less(batch[j].TS) {
			continue
		}
		live[w] = batch[j]
		l.sum += entryHash(batch[j].TS)
		first, w = w, w-1
	}
	l.version += uint64(landed)
	return first, landed, late, dups
}

// admit is MergeSorted's masking step. It drops the batch entries at or
// below their key's winner — exact duplicates, returned as dups, and
// masked arrivals, counted in masked — and makes each survivor, in batch
// order, its key's winner, so every survivor lands and the fingerprint
// already accounts for the winners it replaces.
func (l *Log) admit(batch []Entry) (kept []Entry, dups int) {
	kept = make([]Entry, 0, len(batch))
	for _, e := range batch {
		if w, ok := l.winners[l.mask(e.U)]; ok && !w.TS.Less(e.TS) {
			if e.TS.Less(w.TS) {
				l.masked++
			} else {
				dups++
			}
			continue
		}
		l.win(e)
		kept = append(kept, e)
	}
	return kept, dups
}

// Covers reports whether ts is at or below the compaction horizon —
// i.e. the update carrying it is already folded into the base (the
// stability argument: everything under the horizon was delivered before
// compaction). The sync path uses it to skip entries a digest's Base
// already accounts for.
func (l *Log) Covers(ts clock.Timestamp) bool {
	return l.base != nil && belowHorizon(l, ts)
}

// aboveBase returns the part of batch, which is in log order, that the
// base does not already cover: coverage is downward closed in that
// order, so the covered entries are a prefix.
func (l *Log) aboveBase(batch []Entry) []Entry {
	for len(batch) > 0 && l.Covers(batch[0].TS) {
		batch = batch[1:]
	}
	return batch
}

// CompactBelow folds every entry with timestamp clock ≤ horizon into
// the base snapshot and returns how many entries were folded. The
// caller (the replica) must guarantee, via the stability tracker, that
// no future insert can sort at or below the horizon. A masking log
// never compacts: purge is its garbage collection.
func (l *Log) CompactBelow(horizon uint64) int {
	if l.mask != nil {
		return 0
	}
	live := l.buf[l.head:]
	cut := 0
	for cut < len(live) && live[cut].TS.Clock <= horizon {
		cut++
	}
	if cut == 0 {
		return 0
	}
	s := l.BaseState()
	for i := range live[:cut] {
		s = l.adt.Apply(s, live[i].U)
	}
	l.base = s
	l.baseTS = live[cut-1].TS
	l.baseLen += cut
	// Advance the head offset instead of reallocating the suffix; zero
	// the dead slots so the folded updates become collectable.
	for i := 0; i < cut; i++ {
		live[i] = Entry{}
	}
	l.head += cut
	// Reclaim the dead prefix in bulk once it dominates the buffer.
	if l.head > len(l.buf)-l.head {
		kept := copy(l.buf, l.buf[l.head:])
		tail := l.buf[kept:]
		for i := range tail {
			tail[i] = Entry{}
		}
		l.buf, l.head = l.buf[:kept], 0
	}
	l.version++
	return cut
}

// SeedBase installs a compacted-prefix snapshot into an empty log. The
// resharding move uses it to carry the folded state of the old shards
// into a new shard's log: s must hold exactly the key components owned
// by this log, and ts must be a timestamp such that every future
// insert sorts strictly above it — for a merged base that is the
// *minimum* of the contributing old shards' horizons (each old shard's
// live and in-flight entries sort above its own horizon, hence above
// the minimum). count is how many folded updates s represents when the
// caller knows it, 0 otherwise (the per-key split of a folded state
// cannot recover per-range update counts; the sharded layer accounts
// for them separately). For the same reason a seeded base adds nothing
// to the fingerprint's sum.
func (l *Log) SeedBase(s spec.State, ts clock.Timestamp, count int) {
	if l.base != nil || l.Len() != 0 {
		panic("core: SeedBase requires an empty log")
	}
	l.base = s
	l.baseTS = ts
	l.baseLen = count
	l.seeded = true
	l.version++
}

// Replay returns the state after the base and all live entries. The
// result is freshly built and owned by the caller.
func (l *Log) Replay() spec.State {
	s := l.BaseState()
	live := l.buf[l.head:]
	for i := range live {
		s = l.adt.Apply(s, live[i].U)
	}
	return s
}
