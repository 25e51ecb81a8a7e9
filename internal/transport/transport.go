// Package transport provides the wait-free asynchronous message-passing
// substrate of §VII-A: a complete, reliable network connecting n
// sequential processes, any number of which may crash, with no bound on
// message transfer delays.
//
// Two implementations are provided. SimNetwork is a deterministic,
// seeded simulator in which asynchrony is modeled by adversarially
// (pseudo-randomly) choosing which in-flight message to deliver next;
// it supports crash faults, network partitions and per-link FIFO
// control, and is what the experiment harness uses for reproducible
// runs. Its backlog is partitioned into per-worker shards (by
// destination process), so the adversary can also run as a parallel
// round-based stepper (StepParallel, see simparallel.go) whose schedule
// is a pure function of (seed, workers, batch). LiveNetwork delivers
// messages with real goroutines and per-process mailboxes and is used
// by the examples and the race-detector tests.
//
// Both networks implement the broadcast contract of Algorithm 1: a
// broadcast is delivered to the sender instantaneously (the handler is
// invoked inline, as in the paper's proof of Proposition 4, "messages
// are received instantaneously by the sender") and to every other
// process asynchronously.
//
// Both also implement ResizableNetwork: envelopes carry a shard and an
// epoch tag and each process attaches one router that receives them,
// which is what the key-sharded construction (core.ShardedReplica) runs
// on. FIFO ordering, when enabled, is enforced per link across all
// shards — each shard's messages are a subsequence of the link, so every
// shard individually observes FIFO delivery too.
package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Handler consumes a message delivered to a process. Handlers are
// invoked serially per process.
type Handler func(from int, payload []byte)

// BadPayload is the value a Handler or EpochHandler panics with when a
// delivered payload does not decode. On the in-process networks the bytes
// were written by this program, so the panic stands: it is a bug. On
// TCPNetwork they came off a socket, and the receive loop recovers this
// type — and nothing else — to drop the link as it does for any bad frame.
// A handler raises it before it has landed any part of the payload.
type BadPayload struct{ Err error }

func (e BadPayload) Error() string { return e.Err.Error() }

// Network is the broadcast interface replicas are written against.
type Network interface {
	// Attach registers the handler for process id. It must be called
	// before any Broadcast involving id.
	Attach(id int, h Handler)
	// Broadcast sends payload from process `from` to every process.
	// Self-delivery is synchronous; remote delivery is asynchronous.
	Broadcast(from int, payload []byte)
}

// EpochHandler consumes a delivery on a resizable sharded network: the
// envelope's shard and epoch tags are handed to the process's router,
// which dispatches to the owning shard — directly when the epoch
// matches its routing table, by re-routing the payload's key when the
// sender was on an older (or newer) table.
type EpochHandler func(from, shard, epoch int, payload []byte)

// ResizableNetwork extends Network with what a key-sharded, live
// resharding replica needs: every envelope carries a shard tag — the
// network moves each shard's messages on its own channel (on
// LiveNetwork an independent mailbox and dispatcher per shard, so
// deliveries to different shards of one process proceed in parallel) —
// and an epoch tag, each process registers a single router that receives
// every delivery with both tags, and the set of per-(process, shard)
// channels can grow at runtime. A message broadcast under epoch e is
// delivered with that tag even if receivers have since flipped to a
// later routing table — the in-flight old-epoch envelope reaches the
// receiver's router, which lands it in the shard that owns its key
// *now*.
//
// Attach and Broadcast are the shard-0, epoch-0 channel, so unsharded
// replicas compose transparently. Attach and AttachRouter are mutually
// exclusive per process: a process with a router receives everything
// through it.
type ResizableNetwork interface {
	Network
	// AttachRouter registers the per-process router. It must be called
	// before any broadcast involving id.
	AttachRouter(id int, h EpochHandler)
	// BroadcastShardEpoch sends payload from shard `shard` of process
	// `from`, tagged with the sender's routing epoch, to the same shard
	// of every process. Self-delivery is synchronous; remote delivery
	// is asynchronous.
	BroadcastShardEpoch(from, shard, epoch int, payload []byte)
	// EnsureShards guarantees channels exist for shard indices below
	// shards at every process (growing a live network's mailboxes; a
	// no-op where channels are implicit). It must be called before any
	// broadcast to a shard index the network was not built with.
	EnsureShards(shards int)
}

// Stats counts network traffic. Broadcasts is the number of broadcast
// invocations (the unit §VII-C's "a unique message is broadcast for
// each update" refers to); Sends counts point-to-point transmissions
// that reached a mailbox; Bytes counts payload bytes across all sends.
// Message loss is attributed: DroppedCrash counts messages lost to
// crashes (in-flight envelopes discarded when their receiver crashes,
// sends suppressed while it stays down, and CrashPartialBroadcast's
// discarded envelopes), DroppedLink counts losses injected by per-link
// faults (SetLinkFault). Partitions drop nothing — cut messages stay
// queued until Heal.
type Stats struct {
	Broadcasts   uint64
	Sends        uint64
	Delivered    uint64
	DroppedCrash uint64
	DroppedLink  uint64
	Bytes        uint64
	// DroppedFull counts envelopes rejected by a bounded per-peer send
	// queue under the drop backpressure policy (TCPNetwork); the
	// in-process networks never bound their mailboxes, so it stays zero
	// there.
	DroppedFull uint64
	// Reconnects counts peer link establishments after the first: a
	// TCPNetwork that dialed each peer exactly once has zero.
	Reconnects uint64
}

// add accumulates a delta (a worker round's per-shard counters) into s.
func (s *Stats) add(d Stats) {
	s.Broadcasts += d.Broadcasts
	s.Sends += d.Sends
	s.Delivered += d.Delivered
	s.DroppedCrash += d.DroppedCrash
	s.DroppedLink += d.DroppedLink
	s.Bytes += d.Bytes
	s.DroppedFull += d.DroppedFull
	s.Reconnects += d.Reconnects
}

// envelope is one in-flight point-to-point message. The payload slice
// is immutable and shared by every envelope of one broadcast — the
// transport never copies message bytes per recipient.
type envelope struct {
	from, to int
	shard    int // destination shard (ResizableNetwork broadcasts)
	epoch    int // sender's routing epoch (ResizableNetwork broadcasts)
	// kind distinguishes wire frame types on the TCP path (data vs the
	// sync-on-connect control frames); the in-process networks carry
	// only data envelopes and leave it zero.
	kind    byte
	payload []byte
	seq     uint64 // per-(from,to) link sequence, for FIFO (zero otherwise)
	id      uint64 // tie-break id, unique per coordinator/worker stream
	// elig and lpos belong to SimNetwork's eligible index (simindex.go):
	// elig mirrors eligible(), lpos is the envelope's position in its
	// link's FIFO queue. LiveNetwork leaves both zero.
	elig bool
	lpos int
}

// SimOptions configures a SimNetwork.
type SimOptions struct {
	// N is the number of processes.
	N int
	// Seed drives the adversarial delivery order.
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
	// Workers shards the adversary: the backlog is partitioned by
	// destination process (to mod workers) and each shard picks with
	// its own seeded PRNG, merged by deterministic round-robin
	// arbitration (StepParallel, simparallel.go). 0 and 1 both keep a
	// single shard driven by the root PRNG, so the sequential Step and
	// the workers=1 parallel stepper reproduce the identical schedule.
	// With Workers > 1 the sequential Step/StepN/Quiesce panic — the
	// schedule is defined per (seed, workers, batch), not per seed
	// alone — and StepParallel/QuiesceParallel must be used instead.
	Workers int
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
	// Fenwick trees, O(pending) — no per-link work).
	Refreshes uint64
}

// SimNetwork is the deterministic simulator. It is not safe for
// concurrent use: the simulation harness alternates process steps and
// network steps in one goroutine, which is exactly what makes runs
// reproducible. (StepParallel internally fans a round out to worker
// goroutines, but the call itself is still one-at-a-time from the
// driving goroutine, and structural operations — Crash, Partition,
// Broadcast from the driver — happen between rounds.)
type SimNetwork struct {
	opts SimOptions
	rng  *rand.Rand
	// handlers[id] is the delivery target of process id's plain
	// (shard 0) channel, set by Attach.
	handlers []Handler
	// routers[id], when set, receives every delivery to id with its
	// shard and epoch tags, replacing the plain handler
	// (ResizableNetwork).
	routers []EpochHandler
	crashed []bool
	group   []int // partition group per process
	// shards partitions the in-flight backlog by destination process
	// (to mod len(shards)): each shard owns its pending array, its
	// Fenwick eligible index and (during parallel rounds) its own PRNG
	// and stat deltas. With Workers <= 1 there is exactly one shard and
	// its PRNG is the root rng, reproducing the historical sequential
	// adversary bit for bit.
	shards  []simShard
	nshards int
	// inRound is true while worker picks are executing: handler
	// broadcasts are then buffered per shard (self-delivery inline) and
	// fanned out by the coordinator after the round (simparallel.go).
	inRound bool
	// linkSeq and nextSeq are dense per-link sequence tables indexed by
	// from*N+to: the last sequence number issued on the link and the
	// last one delivered (for FIFO eligibility). Allocated only in FIFO
	// mode — the unordered adversary never consults sequence numbers,
	// and the O(N²) tables would dominate memory at large N.
	linkSeq []uint64
	nextSeq []uint64
	nextID  uint64
	// linkQ holds the per-link FIFO readiness queues (simindex.go),
	// FIFO mode only. Queue entries are positions into the owning
	// shard's pending array (a link's receiver fixes its shard).
	linkQ       []linkQueue
	anyCrashed  bool
	partitioned bool
	// Link faults: faultAll applies to every link, faultMap overrides
	// individual links (including with a zero fault). hasFaults caches
	// "any fault configured" for the per-delivery check.
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
	if opts.Workers < 0 {
		panic("transport: SimOptions.Workers must be non-negative")
	}
	nsh := opts.Workers
	if nsh < 1 {
		nsh = 1
	}
	n := &SimNetwork{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		handlers: make([]Handler, opts.N),
		routers:  make([]EpochHandler, opts.N),
		crashed:  make([]bool, opts.N),
		group:    make([]int, opts.N),
		shards:   make([]simShard, nsh),
		nshards:  nsh,
	}
	for w := range n.shards {
		n.shards[w].self = w
	}
	if opts.Workers > 1 {
		// Each worker draws from its own stream, derived from the seed
		// so (seed, workers) fixes every per-shard pick sequence. The
		// root rng stays the coordinator's (drop draws, structural ops).
		for w := range n.shards {
			n.shards[w].rng = rand.New(rand.NewSource(int64(workerSeed(uint64(opts.Seed), w))))
		}
	} else {
		// One shard: the parallel stepper and the sequential Step share
		// the root PRNG, so both reproduce the historical schedule.
		n.shards[0].rng = n.rng
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

// shardOf returns the shard owning deliveries to process `to`.
func (n *SimNetwork) shardOf(to int) *simShard { return &n.shards[to%n.nshards] }

// Workers reports the number of adversary shards (1 for the sequential
// configuration).
func (n *SimNetwork) Workers() int { return n.nshards }

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

// EnsureShards implements ResizableNetwork: the simulator keeps no
// per-shard structures beyond the handler tables, and a router-attached
// process needs none, so growth is implicit.
func (n *SimNetwork) EnsureShards(int) {}

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
// plain handler).
//
// During a parallel round (StepParallel) a handler's broadcast is
// buffered instead: the sender's own copy is still delivered inline on
// the worker that owns it — handlers may only broadcast as the process
// they are attached to — and the remote fan-out replays after the
// round, in deterministic worker order, on the coordinator.
func (n *SimNetwork) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	if n.inRound {
		n.bufferBroadcast(from, shard, epoch, payload)
		return
	}
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
	n.fanOut(from, shard, epoch, payload)
}

// fanOut queues one envelope per live remote process, drawing the
// per-link drop decisions from the coordinator rng. It is the remote
// half of a broadcast — the caller has already handled self-delivery.
func (n *SimNetwork) fanOut(from, shard, epoch int, payload []byte) {
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
		e := envelope{
			from: from, to: to, shard: shard, epoch: epoch, payload: payload,
			id: n.nextID,
		}
		if n.opts.FIFO {
			n.linkSeq[link]++
			e.seq = n.linkSeq[link]
		}
		n.enqueueShard(n.shardOf(to), e)
		n.nextID++
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
//
// Step is the sequential adversary and requires Workers <= 1; with
// more shards the schedule is defined by the round-based parallel
// stepper, so use StepParallel instead.
func (n *SimNetwork) Step() bool {
	if n.nshards > 1 {
		panic("transport: Step is sequential; use StepParallel with Workers > 1")
	}
	sh := &n.shards[0]
	if sh.eligCount == 0 {
		return false
	}
	k := n.rng.Intn(sh.eligCount)
	at := k
	if sh.eligCount != len(sh.pending) {
		at = sh.idx.selectK(k)
	}
	e := n.removeFrom(sh, at)
	if n.opts.DuplicateProb > 0 && n.rng.Float64() < n.opts.DuplicateProb {
		dup := e
		dup.id = n.nextID
		n.nextID++
		n.enqueueShard(sh, dup)
		n.stats.Sends++
		n.stats.Bytes += uint64(len(e.payload))
	}
	if n.hasFaults {
		link := n.link(e.from, e.to)
		if f := n.fault(link); f.Dup > 0 && n.rng.Float64() < f.Dup {
			// Re-enqueue at the link tail with a fresh sequence number:
			// an in-order duplicate, sound even on FIFO links.
			dup := e
			dup.id = n.nextID
			n.nextID++
			if n.opts.FIFO {
				n.linkSeq[link]++
				dup.seq = n.linkSeq[link]
			}
			n.enqueueShard(sh, dup)
			n.stats.Sends++
			n.stats.Bytes += uint64(len(e.payload))
		}
	}
	n.stats.Delivered++
	sh.picks++
	sh.fp = fpMix(sh.fp, uint64(e.from), uint64(e.to))
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
func (n *SimNetwork) Pending() int {
	total := 0
	for i := range n.shards {
		total += len(n.shards[i].pending)
	}
	return total
}

// Eligible returns the number of in-flight messages deliverable now.
func (n *SimNetwork) Eligible() int {
	total := 0
	for i := range n.shards {
		total += n.shards[i].eligCount
	}
	return total
}

// Crash halts a process: it stops receiving (its in-flight inbound
// messages are dropped, and sends to it are suppressed while it stays
// down) and its future broadcasts are suppressed. Messages it already
// sent remain in flight (they were handed to the network). A crash is
// not necessarily forever: Recover brings the process back with its
// local state intact.
//
// Only the crashed process's own links are repaired: its inbound
// envelopes live in one shard (the one owning deliveries to it), whose
// pending array is compacted in place, and only its N inbound FIFO
// queues are cleared — the other links' queues keep their order and
// merely have their stored positions re-pointed. Eligibility bits and
// trees are then refreshed, with no per-link scan.
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
		sh, idx int
		seq     uint64
	}
	perLink := map[int][]slot{}
	for s := range n.shards {
		sh := &n.shards[s]
		for i := range sh.pending {
			e := &sh.pending[i]
			if e.from != id && e.to != id {
				continue
			}
			l := n.link(e.from, e.to)
			perLink[l] = append(perLink[l], slot{sh: s, idx: i, seq: e.seq})
		}
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
				n.shards[s.sh].pending[s.idx].seq = seq
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
	if n.faultMap == nil {
		n.faultMap = make(map[int]LinkFault)
	}
	n.faultMap[n.link(from, to)] = f
	n.hasFaults = true
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

// clearTail zeroes the slots past length so dropped payloads become
// collectable.
func clearTail(s []envelope, length int) {
	for i := length; i < len(s); i++ {
		s[i] = envelope{}
	}
}

// CrashPartialBroadcast models the adversarial crash of §VII's fault
// model at its harshest: the process halts mid-broadcast, so each of
// its in-flight messages independently survives with probability
// keepProb. With best-effort broadcast this can leave correct processes
// disagreeing about the crashed process's updates, which the replicas'
// anti-entropy repair closes.
//
// Survival draws come from the coordinator rng in shard-major,
// ascending-position order (the historical global-array order when
// there is one shard).
func (n *SimNetwork) CrashPartialBroadcast(id int, keepProb float64) {
	already := n.crashed[id]
	for s := range n.shards {
		n.dropOutboundPartial(&n.shards[s], id, keepProb)
	}
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
// and move no envelopes: only the eligibility bits and trees refresh.
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

// LiveNetwork delivers messages with one dispatcher goroutine and an
// unbounded mailbox per (process, shard) pair, so Broadcast never
// blocks — the wait-freedom requirement. Unsharded use (NewLive) has a
// single shard per process; NewLiveSharded gives every shard its own
// mailbox and dispatcher, so deliveries to different shards of the
// same process run in parallel. It is safe for concurrent use.
type LiveNetwork struct {
	n      int
	shards int
	// nodes holds the mailbox + dispatcher table, nodes[id][shard], one
	// per shard of each process. The table is copy-on-write: EnsureShards
	// builds a fresh table and swaps the pointer (writers coordinate
	// under mu), so the broadcast hot path loads and indexes it without
	// a lock.
	nodes atomic.Pointer[[][]*liveNode]
	// routers[id], when set, receives every delivery to id with its
	// shard and epoch tags (ResizableNetwork); nodes added later by
	// EnsureShards inherit it.
	routers []EpochHandler
	// crashedProc[id] records a Crash(id) at the process level (guarded
	// by mu) so nodes added later by EnsureShards are born crashed — a
	// crashed process must not come back to life on new shard indices.
	crashedProc []bool
	mu          sync.Mutex
	stats       Stats
	// delivered counts messages the dispatchers handed to a handler, and
	// droppedCrash those they discarded because their process was
	// crashed; atomic because dispatchers bump them outside mu.
	delivered    atomic.Uint64
	droppedCrash atomic.Uint64
	closed       bool
}

type liveNode struct {
	// mb is the shared batch-drain mailbox (mailbox.go) — the same
	// helper the TCP transport's per-peer senders drain; here it is
	// unbounded, which is the wait-freedom requirement.
	mb *mailbox
	// hmu guards handler/route registration against the dispatcher's
	// per-batch load.
	hmu     sync.Mutex
	handler Handler
	// route, when set, replaces handler: deliveries are handed to the
	// per-process router with their shard and epoch tags.
	route EpochHandler
	// crashed is atomic, not mutex-guarded: the dispatcher re-checks it
	// per message while working through a swapped-out batch, so a crash
	// takes effect mid-backlog without reintroducing a lock round-trip
	// per envelope.
	crashed atomic.Bool
	// ln is the owning network, whose delivery and crash-drop counters
	// the dispatcher bumps once per batch.
	ln   *LiveNetwork
	done chan struct{}
}

// NewLive returns a live network for n processes with a single shard
// per process. Close must be called to stop the dispatcher goroutines.
func NewLive(n int) *LiveNetwork { return NewLiveSharded(n, 1) }

// NewLiveSharded returns a live network for n processes with the given
// number of shards per process, one mailbox and dispatcher goroutine
// each. Close must be called to stop the dispatchers.
func NewLiveSharded(n, shards int) *LiveNetwork {
	if shards <= 0 {
		panic("transport: NewLiveSharded needs at least one shard")
	}
	ln := &LiveNetwork{n: n, shards: shards, routers: make([]EpochHandler, n), crashedProc: make([]bool, n)}
	nodes := make([][]*liveNode, n)
	for i := range nodes {
		nodes[i] = make([]*liveNode, shards)
		for s := range nodes[i] {
			nodes[i][s] = newLiveNode(ln)
		}
	}
	ln.nodes.Store(&nodes)
	return ln
}

func newLiveNode(ln *LiveNetwork) *liveNode {
	node := &liveNode{mb: newMailbox(0), ln: ln, done: make(chan struct{})}
	go node.run()
	return node
}

// snapshot captures the current node table; a captured table is
// immutable (EnsureShards swaps in a fresh one, never mutates one).
func (ln *LiveNetwork) snapshot() [][]*liveNode { return *ln.nodes.Load() }

// EnsureShards implements ResizableNetwork: it grows every process's
// mailbox row to the given shard count, spawning a dispatcher per new
// (process, shard) channel. Existing nodes — and any envelopes queued
// in them — are carried over untouched. Shrinking is implicit: a
// routing epoch with fewer shards simply stops broadcasting to the
// higher indices, whose dispatchers idle until Close.
func (ln *LiveNetwork) EnsureShards(shards int) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if shards <= ln.shards || ln.closed {
		return
	}
	old := *ln.nodes.Load()
	nodes := make([][]*liveNode, ln.n)
	for i := range nodes {
		row := make([]*liveNode, shards)
		copy(row, old[i])
		for s := ln.shards; s < shards; s++ {
			node := newLiveNode(ln)
			if rt := ln.routers[i]; rt != nil {
				node.hmu.Lock()
				node.route = rt
				node.hmu.Unlock()
			}
			if ln.crashedProc[i] {
				node.crashed.Store(true)
			}
			row[s] = node
		}
		nodes[i] = row
	}
	ln.nodes.Store(&nodes)
	ln.shards = shards
}

// AttachRouter implements ResizableNetwork: every current and future
// channel of process id delivers through h.
func (ln *LiveNetwork) AttachRouter(id int, h EpochHandler) {
	ln.mu.Lock()
	ln.routers[id] = h
	nodes := *ln.nodes.Load()
	ln.mu.Unlock()
	for _, nd := range nodes[id] {
		nd.hmu.Lock()
		nd.route = h
		nd.hmu.Unlock()
	}
}

func (nd *liveNode) run() {
	defer close(nd.done)
	// The mailbox and the dispatcher's batch buffer ping-pong: one lock
	// round-trip swaps the whole queue out, instead of popping one
	// envelope per acquisition — under heavy fan-in the dispatcher takes
	// the lock once per backlog, not once per message.
	var batch []envelope
	for {
		var ok bool
		batch, ok = nd.mb.swapWait(batch)
		if !ok {
			return
		}
		nd.hmu.Lock()
		h, rt := nd.handler, nd.route
		nd.hmu.Unlock()
		if h != nil || rt != nil {
			handled := 0
			for i := range batch {
				if nd.crashed.Load() {
					nd.ln.droppedCrash.Add(uint64(len(batch) - i))
					break // a crash mid-batch drops the rest
				}
				if rt != nil {
					rt(batch[i].from, batch[i].shard, batch[i].epoch, batch[i].payload)
				} else {
					h(batch[i].from, batch[i].payload)
				}
				handled++
			}
			nd.ln.delivered.Add(uint64(handled))
		}
		// Zero the handled slots so the shared payloads become
		// collectable while the buffer waits for reuse.
		clearTail(batch, 0)
		nd.mb.idle()
	}
}

// Attach implements Network.
func (ln *LiveNetwork) Attach(id int, h Handler) {
	nd := ln.snapshot()[id][0]
	nd.hmu.Lock()
	nd.handler = h
	nd.hmu.Unlock()
}

// Broadcast implements Network. Self-delivery is synchronous (invoked
// on the caller's goroutine); remote deliveries are enqueued.
func (ln *LiveNetwork) Broadcast(from int, payload []byte) {
	ln.BroadcastShardEpoch(from, 0, 0, payload)
}

// BroadcastShardEpoch implements ResizableNetwork: the message goes to
// the mailbox of shard `shard` at every other process, tagged with the
// sender's routing epoch.
func (ln *LiveNetwork) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	nodes := ln.snapshot()
	self := nodes[from][shard]
	self.hmu.Lock()
	h, rt := self.handler, self.route
	self.hmu.Unlock()
	if self.crashed.Load() {
		return
	}
	// One batched stats update per broadcast, not one lock round-trip
	// per recipient. Only the inline self copy counts as delivered here;
	// the dispatchers count the rest as they hand them over.
	ln.mu.Lock()
	ln.stats.Broadcasts++
	ln.stats.Sends += uint64(ln.n)
	ln.stats.Delivered++
	ln.stats.Bytes += uint64(len(payload) * ln.n)
	ln.mu.Unlock()
	if rt != nil {
		rt(from, shard, epoch, payload)
	} else if h != nil {
		h(from, payload)
	}
	for to := 0; to < ln.n; to++ {
		if to == from {
			continue
		}
		// The payload slice is shared with every other mailbox; the
		// mailboxes are unbounded, so push never blocks (and is a
		// counted no-op after Close).
		nodes[to][shard].mb.push(envelope{from: from, to: to, shard: shard, epoch: epoch, payload: payload}, false)
	}
}

// Crash halts a process: every shard stops handling queued and future
// messages (including a batch the dispatcher already swapped out of the
// mailbox) and the process's broadcasts are suppressed — including on
// shard channels a later EnsureShards adds.
func (ln *LiveNetwork) Crash(id int) {
	ln.mu.Lock()
	ln.crashedProc[id] = true
	nodes := *ln.nodes.Load()
	ln.mu.Unlock()
	for _, nd := range nodes[id] {
		nd.crashed.Store(true)
	}
}

// Recover brings a crashed process back on every shard channel,
// including ones EnsureShards added while it was down. Messages the
// dispatchers dropped during the crash are lost; anything still queued
// at recovery time delivers normally (indistinguishable from in-flight
// delay — the live transport's crash drop is inherently racy). State
// repair is the anti-entropy layer's job, not the transport's.
func (ln *LiveNetwork) Recover(id int) {
	ln.mu.Lock()
	ln.crashedProc[id] = false
	nodes := *ln.nodes.Load()
	ln.mu.Unlock()
	for _, nd := range nodes[id] {
		nd.crashed.Store(false)
	}
}

// Close stops all dispatchers after draining their queues and waits for
// them to exit.
func (ln *LiveNetwork) Close() {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return
	}
	ln.closed = true
	ln.mu.Unlock()
	nodes := ln.snapshot()
	for _, row := range nodes {
		for _, nd := range row {
			nd.mb.close()
		}
	}
	for _, row := range nodes {
		for _, nd := range row {
			<-nd.done
		}
	}
}

// Drain blocks until every mailbox is empty and every dispatcher is
// idle, repeating until one full pass observes the whole network
// quiescent (a handler may broadcast, refilling mailboxes checked
// earlier in the pass). With no concurrent
// broadcasters, Drain returning means every sent message has been
// fully handled.
func (ln *LiveNetwork) Drain() {
	for {
		stable := true
		for _, row := range ln.snapshot() {
			for _, nd := range row {
				if nd.mb.waitEmpty() {
					stable = false
				}
			}
		}
		if stable {
			return
		}
	}
}

// Stats returns a copy of the traffic counters.
func (ln *LiveNetwork) Stats() Stats {
	ln.mu.Lock()
	s := ln.stats
	ln.mu.Unlock()
	s.Delivered += ln.delivered.Load()
	s.DroppedCrash += ln.droppedCrash.Load()
	return s
}

var _ ResizableNetwork = (*LiveNetwork)(nil)

// String renders traffic counters for experiment tables.
func (s Stats) String() string {
	return fmt.Sprintf("broadcasts=%d sends=%d delivered=%d dropped_crash=%d dropped_link=%d dropped_full=%d reconnects=%d bytes=%d",
		s.Broadcasts, s.Sends, s.Delivered, s.DroppedCrash, s.DroppedLink, s.DroppedFull, s.Reconnects, s.Bytes)
}
