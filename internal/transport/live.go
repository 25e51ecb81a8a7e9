package transport

import (
	"sync"
	"sync/atomic"
)

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
