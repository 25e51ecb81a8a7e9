package transport

import (
	"math/rand"
	"sort"
)

// SimOptions configures a SimNetwork: its process count, the seed of
// its one adversary, and the channel model it delivers under.
type SimOptions struct {
	// N is the number of processes.
	N int
	// Seed drives the adversarial delivery order: the seed alone fixes
	// the schedule of a given sequence of broadcasts, steps and
	// structural events.
	Seed int64
	// FIFO restricts delivery to per-link FIFO order (the assumption
	// pipelined consistency needs). When false the adversary may
	// reorder messages arbitrarily, which Algorithm 1 tolerates. FIFO
	// allocates dense O(N²) per-link tables; leave it off for very
	// large simulations (the N-independent structures are all O(N)).
	FIFO bool
	// DuplicateProb re-enqueues a delivered message with this
	// probability, modeling at-least-once channels. Incompatible with
	// FIFO (a duplicate is inherently out of order; per-link in-order
	// duplication is available via SetLinkFault instead). A replica drops
	// and counts a redelivered update (core.Stats.DupDropped).
	DuplicateProb float64
}

// LinkFault injects per-link message faults, beyond the adversary's
// reordering: each message sent on the link is lost with probability
// Drop (decided at send time, before the link sequence advances, so a
// FIFO link never waits on a message that was never sent), and each
// delivered message is re-enqueued once at the link tail with
// probability Dup — an in-order duplicate carrying a fresh sequence
// number, so FIFO delivery order is preserved while the receiver sees
// the same frame again later, exercising the core replica's
// duplicate-tolerant insert.
//
// Faults do NOT compose with stability GC: the horizon argument assumes
// every sent message is delivered exactly once on its FIFO link. Run
// fault schedules against GC-less replicas and repair the losses with
// anti-entropy (core digest sync) instead.
type LinkFault struct {
	Drop float64
	Dup  float64
}

// IndexRepairStats counts the index-maintenance work done by the
// structural fault operations (Crash, CrashPartialBroadcast, Recover,
// Partition, Heal). The counters exist so tests can pin the repair
// cost: a crash must repair only the links touching the crashed
// process (O(N) of them), never rescan and re-sort every link's FIFO
// queue (O(N²) — the historical rebuild-on-crash behavior).
type IndexRepairStats struct {
	// LinksRepaired counts non-empty per-link queue operations:
	// queues cleared (crashed receiver), filtered (partial-broadcast
	// drops) or renumbered (Recover's sequence repair).
	LinksRepaired uint64
	// Refreshes counts whole-backlog eligibility recomputes (bits +
	// Fenwick tree, O(pending) — no per-link work).
	Refreshes uint64
}

// SimNetwork is the deterministic simulator. It is not safe for
// concurrent use: the simulation harness alternates process steps and
// network steps in one goroutine, which is exactly what makes runs
// reproducible.
type SimNetwork struct {
	opts SimOptions
	// rng is the adversary: every pick, duplicate and drop draw comes
	// from it, in call order.
	rng *rand.Rand
	// handlers[id] is the delivery target of process id's plain
	// (shard 0) channel, set by Attach.
	handlers []Handler
	// routers[id], when set, receives every delivery to id with its
	// shard and epoch tags, replacing the plain handler
	// (ResizableNetwork).
	routers []EpochHandler
	crashed []bool
	group   []int // partition group per process
	// pending is the in-flight backlog; eligCount counts its deliverable
	// envelopes and idx indexes them by position (simindex.go).
	pending   []envelope
	eligCount int
	idx       fenwick
	// fp folds every delivery, in pick order, into the schedule
	// fingerprint (ScheduleFingerprint).
	fp uint64
	// linkSeq and nextSeq are dense per-link sequence tables indexed by
	// from*N+to: the last sequence number issued on the link and the
	// last one delivered (for FIFO eligibility). Allocated only in FIFO
	// mode — the unordered adversary never consults sequence numbers,
	// and the O(N²) tables would dominate memory at large N.
	linkSeq []uint64
	nextSeq []uint64
	// linkQ holds the per-link FIFO readiness queues (simindex.go),
	// FIFO mode only. Queue entries are positions into pending.
	linkQ       []linkQueue
	anyCrashed  bool
	partitioned bool
	// Link faults: faultAll applies to every link, faultMap overrides
	// individual links (a zero override only while faultAll is set).
	// hasFaults caches "some link has a fault" for the per-message check.
	faultAll  LinkFault
	faultMap  map[int]LinkFault
	hasFaults bool
	stats     Stats
	idxRepair IndexRepairStats
}

// NewSim returns a deterministic network for opts.N processes.
func NewSim(opts SimOptions) *SimNetwork {
	if opts.N <= 0 {
		panic("transport: SimOptions.N must be positive")
	}
	if opts.DuplicateProb > 0 && opts.FIFO {
		panic("transport: DuplicateProb is incompatible with FIFO delivery")
	}
	if opts.DuplicateProb >= 1 {
		panic("transport: DuplicateProb must be below 1 or delivery never quiesces")
	}
	n := &SimNetwork{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		handlers: make([]Handler, opts.N),
		routers:  make([]EpochHandler, opts.N),
		crashed:  make([]bool, opts.N),
		group:    make([]int, opts.N),
	}
	if opts.FIFO {
		n.linkQ = make([]linkQueue, opts.N*opts.N)
		n.linkSeq = make([]uint64, opts.N*opts.N)
		n.nextSeq = make([]uint64, opts.N*opts.N)
	}
	return n
}

// link indexes the dense per-link tables.
func (n *SimNetwork) link(from, to int) int { return from*n.opts.N + to }

// Attach implements Network.
func (n *SimNetwork) Attach(id int, h Handler) { n.handlers[id] = h }

// Broadcast implements Network. The sender's own copy is delivered
// inline; copies to other live processes are queued for adversarial
// delivery. A crashed sender cannot broadcast.
func (n *SimNetwork) Broadcast(from int, payload []byte) {
	n.BroadcastShardEpoch(from, 0, 0, payload)
}

// AttachRouter implements ResizableNetwork.
func (n *SimNetwork) AttachRouter(id int, h EpochHandler) { n.routers[id] = h }

// deliver hands an envelope's content to the receiving process: its
// router when one is attached, otherwise the plain handler, which is the
// shard-0 channel only.
func (n *SimNetwork) deliver(to, from, shard, epoch int, payload []byte) {
	if rt := n.routers[to]; rt != nil {
		rt(from, shard, epoch, payload)
	} else if shard == 0 {
		n.handlers[to](from, payload)
	}
}

// fault returns the fault configuration of a link: the per-link
// override when one is set (even a zero one), the global fault
// otherwise.
func (n *SimNetwork) fault(link int) LinkFault {
	if n.faultMap != nil {
		if f, ok := n.faultMap[link]; ok {
			return f
		}
	}
	return n.faultAll
}

// BroadcastShardEpoch implements ResizableNetwork: each queued envelope
// is tagged with the shard and the sender's routing epoch, and delivery
// invokes the receiver's router (or, without one and on shard 0, its
// plain handler). A handler may broadcast while it is being delivered
// to (a relay does); its messages join the backlog like any other.
func (n *SimNetwork) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	if n.crashed[from] {
		return
	}
	n.stats.Broadcasts++
	// Instantaneous self-delivery (line 8 of Algorithm 1 fires for the
	// sender before update() returns).
	n.stats.Sends++
	n.stats.Delivered++
	n.stats.Bytes += uint64(len(payload))
	n.deliver(from, from, shard, epoch, payload)
	for to := 0; to < n.opts.N; to++ {
		if to == from {
			continue
		}
		if n.crashed[to] {
			// A crashed process has no mailbox: the message is lost, not
			// queued for its return — rejoining with a complete log is
			// the anti-entropy layer's job, not the transport's. Decided
			// before the link sequence advances, so the link stays
			// contiguous for a later Recover.
			n.stats.DroppedCrash++
			continue
		}
		link := n.link(from, to)
		if n.hasFaults {
			if f := n.fault(link); f.Drop > 0 && n.rng.Float64() < f.Drop {
				n.stats.DroppedLink++
				continue
			}
		}
		// The payload slice is shared, never copied per recipient.
		e := envelope{from: from, to: to, shard: shard, epoch: epoch, payload: payload}
		if n.opts.FIFO {
			n.linkSeq[link]++
			e.seq = n.linkSeq[link]
		}
		n.enqueue(e)
		n.stats.Sends++
		n.stats.Bytes += uint64(len(payload))
	}
}

// eligible reports whether an envelope may be delivered now.
func (n *SimNetwork) eligible(e *envelope) bool {
	if n.crashed[e.to] {
		return false
	}
	if n.group[e.from] != n.group[e.to] {
		return false
	}
	if n.opts.FIFO {
		return e.seq == n.nextSeq[n.link(e.from, e.to)]+1
	}
	return true
}

// Step delivers one pseudo-randomly chosen eligible in-flight message,
// returning false when nothing can be delivered (quiescence, or all
// remaining messages are blocked by partitions).
//
// The pick is uniform over the eligible envelopes in ascending
// pending-array order — the same draw, against the same ordering, as
// the historical full scan, so a seed fixes the identical delivery
// schedule — but it is answered by the eligible index (simindex.go):
// O(1) when everything is eligible, O(log pending) otherwise, never a
// walk over the backlog.
func (n *SimNetwork) Step() bool {
	if n.eligCount == 0 {
		return false
	}
	k := n.rng.Intn(n.eligCount)
	at := k
	if n.eligCount != len(n.pending) {
		at = n.idx.selectK(k)
	}
	e := n.removeAt(at)
	if n.opts.DuplicateProb > 0 && n.rng.Float64() < n.opts.DuplicateProb {
		n.enqueue(e)
		n.stats.Sends++
		n.stats.Bytes += uint64(len(e.payload))
	}
	if n.hasFaults {
		link := n.link(e.from, e.to)
		if f := n.fault(link); f.Dup > 0 && n.rng.Float64() < f.Dup {
			// Re-enqueue at the link tail with a fresh sequence number:
			// an in-order duplicate, sound even on FIFO links.
			dup := e
			if n.opts.FIFO {
				n.linkSeq[link]++
				dup.seq = n.linkSeq[link]
			}
			n.enqueue(dup)
			n.stats.Sends++
			n.stats.Bytes += uint64(len(e.payload))
		}
	}
	n.stats.Delivered++
	n.fp = fpMix(n.fp, uint64(e.from), uint64(e.to))
	n.deliver(e.to, e.from, e.shard, e.epoch, e.payload)
	return true
}

// StepN delivers up to k messages, returning how many were delivered.
func (n *SimNetwork) StepN(k int) int {
	for i := 0; i < k; i++ {
		if !n.Step() {
			return i
		}
	}
	return k
}

// Quiesce delivers until no message is deliverable. Handlers may
// broadcast during delivery (e.g. reliable-broadcast relays); those
// messages are delivered too.
func (n *SimNetwork) Quiesce() {
	for n.Step() {
	}
}

// Pending returns the number of in-flight messages (including ones
// blocked by partitions or addressed to crashed processes).
func (n *SimNetwork) Pending() int { return len(n.pending) }

// Eligible returns the number of in-flight messages deliverable now.
func (n *SimNetwork) Eligible() int { return n.eligCount }

// Crash halts a process: it stops receiving (its in-flight inbound
// messages are dropped, and sends to it are suppressed while it stays
// down) and its future broadcasts are suppressed. Messages it already
// sent remain in flight (they were handed to the network). A crash is
// not necessarily forever: Recover brings the process back with its
// local state intact.
//
// Only the crashed process's own links are repaired: the pending array
// is compacted in place, and only its N inbound FIFO queues are
// cleared — the other links' queues keep their order and merely have
// their stored positions re-pointed. Eligibility bits and the tree are
// then refreshed, with no per-link scan.
func (n *SimNetwork) Crash(id int) {
	if n.crashed[id] {
		return
	}
	n.crashed[id] = true
	n.anyCrashed = true
	n.dropInbound(id)
	if n.opts.FIFO {
		// Everything ever sent to id is now delivered or dropped, and
		// nothing new is queued while it is down; declaring the inbound
		// links contiguous keeps them unjammed for a later Recover. The
		// inbound queues (whose envelopes were all just dropped) reset.
		for from := 0; from < n.opts.N; from++ {
			l := n.link(from, id)
			n.nextSeq[l] = n.linkSeq[l]
			if lq := &n.linkQ[l]; len(lq.q) > 0 || lq.head > 0 {
				lq.q, lq.head = lq.q[:0], 0
				n.idxRepair.LinksRepaired++
			}
		}
	}
	n.refreshEligibility()
}

// Recover brings a crashed process back: it keeps its pre-crash local
// state (the attached replica is untouched) and resumes sending and
// receiving. Messages addressed to it while it was down are gone —
// catching up on the missed suffix is the anti-entropy layer's job
// (core digest sync), not the transport's. Recovering a process that
// is not crashed is a no-op.
func (n *SimNetwork) Recover(id int) {
	if !n.crashed[id] {
		return
	}
	n.crashed[id] = false
	n.anyCrashed = false
	for _, c := range n.crashed {
		if c {
			n.anyCrashed = true
			break
		}
	}
	if n.opts.FIFO {
		n.repairLinks(id)
	}
	n.refreshEligibility()
}

// repairLinks renumbers the pending envelopes on every link touching id
// so each link's sequence numbers are contiguous again: crashes drop
// messages without delivering them (and CrashPartialBroadcast discards
// a random subset of the crashed sender's in-flight messages), leaving
// sequence holes that would jam FIFO eligibility forever after a
// Recover. Relative order per link is preserved, so FIFO semantics
// among the surviving messages are untouched — and so the links' FIFO
// queues stay valid without a rebuild.
func (n *SimNetwork) repairLinks(id int) {
	type slot struct {
		idx int
		seq uint64
	}
	perLink := map[int][]slot{}
	for i := range n.pending {
		e := &n.pending[i]
		if e.from != id && e.to != id {
			continue
		}
		l := n.link(e.from, e.to)
		perLink[l] = append(perLink[l], slot{idx: i, seq: e.seq})
	}
	for peer := 0; peer < n.opts.N; peer++ {
		for _, l := range []int{n.link(id, peer), n.link(peer, id)} {
			slots := perLink[l]
			if len(slots) > 0 {
				n.idxRepair.LinksRepaired++
			}
			sort.Slice(slots, func(a, b int) bool { return slots[a].seq < slots[b].seq })
			seq := n.nextSeq[l]
			for _, s := range slots {
				seq++
				n.pending[s.idx].seq = seq
			}
			n.linkSeq[l] = seq
		}
	}
}

// SetLinkFault configures fault injection on the directed link
// from → to; see LinkFault. A zero LinkFault clears the link's faults
// (overriding a global SetLinkFaultAll for that link).
func (n *SimNetwork) SetLinkFault(from, to int, f LinkFault) {
	if from < 0 || from >= n.opts.N || to < 0 || to >= n.opts.N || from == to {
		panic("transport: SetLinkFault needs two distinct process ids in range")
	}
	checkFault(f)
	l := n.link(from, to)
	if f == (LinkFault{}) && n.faultAll == (LinkFault{}) {
		// Nothing to override: the link is fault-free either way.
		delete(n.faultMap, l)
	} else {
		if n.faultMap == nil {
			n.faultMap = make(map[int]LinkFault)
		}
		n.faultMap[l] = f
	}
	n.hasFaults = n.faultAll != LinkFault{} || len(n.faultMap) > 0
}

// SetLinkFaultAll applies f to every cross-process link (clearing any
// per-link overrides), without materializing per-link state.
func (n *SimNetwork) SetLinkFaultAll(f LinkFault) {
	checkFault(f)
	n.faultAll = f
	n.faultMap = nil
	n.hasFaults = f != LinkFault{}
}

func checkFault(f LinkFault) {
	if f.Drop < 0 || f.Drop >= 1 || f.Dup < 0 || f.Dup >= 1 {
		panic("transport: LinkFault probabilities must be in [0, 1)")
	}
}

// CrashPartialBroadcast models the adversarial crash of §VII's fault
// model at its harshest: the process halts mid-broadcast, so each of
// its in-flight messages independently survives with probability
// keepProb. With best-effort broadcast this can leave correct processes
// disagreeing about the crashed process's updates, which the replicas'
// anti-entropy repair closes.
//
// Survival draws come from the adversary rng in ascending
// pending-array order.
func (n *SimNetwork) CrashPartialBroadcast(id int, keepProb float64) {
	already := n.crashed[id]
	n.dropOutboundPartial(id, keepProb)
	if already {
		// Crash below would no-op; the compaction still moved envelopes.
		n.refreshEligibility()
		return
	}
	n.Crash(id) // refreshes eligibility
}

// Crashed reports whether id has crashed.
func (n *SimNetwork) Crashed(id int) bool { return n.crashed[id] }

// Reachable reports whether messages currently flow from a to b: both
// alive, and not separated by a partition. The anti-entropy layer uses
// it to keep digest exchanges honest — a recovering replica pulls only
// from peers it could actually talk to, and cross-cut repair waits for
// Heal.
func (n *SimNetwork) Reachable(a, b int) bool {
	return !n.crashed[a] && !n.crashed[b] && n.group[a] == n.group[b]
}

// Partition splits the processes into groups; messages only flow within
// a group. Messages already in flight across the cut stay queued until
// Heal. Unmentioned processes form group 0. Partitions edit no queues
// and move no envelopes: only the eligibility bits and tree refresh.
func (n *SimNetwork) Partition(groups ...[]int) {
	for i := range n.group {
		n.group[i] = 0
	}
	n.partitioned = false
	for g, members := range groups {
		for _, id := range members {
			n.group[id] = g + 1
			n.partitioned = true
		}
	}
	n.refreshEligibility()
}

// Heal removes all partitions.
func (n *SimNetwork) Heal() {
	for i := range n.group {
		n.group[i] = 0
	}
	n.partitioned = false
	n.refreshEligibility()
}

// Stats returns a copy of the traffic counters.
func (n *SimNetwork) Stats() Stats { return n.stats }

// IndexRepair returns the cumulative index-repair work counters.
func (n *SimNetwork) IndexRepair() IndexRepairStats { return n.idxRepair }

var _ ResizableNetwork = (*SimNetwork)(nil)

// fpMix folds one pick (sender, receiver) into a running schedule
// fingerprint (splitmix64-style).
func fpMix(h, from, to uint64) uint64 {
	x := h ^ (from*0x9e3779b97f4a7c15 + to + 0x632be59bd9b4e019)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ScheduleFingerprint returns a hash pinning the delivery schedule so
// far: one fpMix chain over every pick's (sender, receiver) pair, in
// pick order. Two runs with the same seed and the same sequence of
// calls produce identical fingerprints; any divergence in which
// envelope was delivered when changes the value.
func (n *SimNetwork) ScheduleFingerprint() uint64 { return n.fp }
