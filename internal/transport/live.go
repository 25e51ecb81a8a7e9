package transport

import (
	"sync"
	"sync/atomic"
)

// LiveNetwork delivers messages with one dispatcher goroutine and an
// unbounded mailbox per process, so Broadcast never blocks — the
// wait-freedom requirement. Every message to a process goes through its
// one mailbox whatever its shard tag, so each link is one FIFO stream,
// as on SimNetwork with FIFO on and TCPNetwork: a sharded replica's
// stability tracker, shared by its shards, relies on that. It is safe
// for concurrent use.
type LiveNetwork struct {
	n int
	// nodes holds the mailbox + dispatcher of each process.
	nodes []*liveNode
	mu    sync.Mutex
	stats Stats
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

// NewLive returns a live network for n processes. Close must be called
// to stop the dispatcher goroutines.
func NewLive(n int) *LiveNetwork {
	ln := &LiveNetwork{n: n, nodes: make([]*liveNode, n)}
	for i := range ln.nodes {
		nd := &liveNode{mb: newMailbox(0), ln: ln, done: make(chan struct{})}
		go nd.run()
		ln.nodes[i] = nd
	}
	return ln
}

// NewLiveSharded is NewLive: the shard count no longer shapes the
// network, whose one mailbox per process carries every shard tag.
func NewLiveSharded(n, _ int) *LiveNetwork { return NewLive(n) }

// AttachRouter implements ResizableNetwork: every delivery to id goes
// through h.
func (ln *LiveNetwork) AttachRouter(id int, h EpochHandler) {
	nd := ln.nodes[id]
	nd.hmu.Lock()
	nd.route = h
	nd.hmu.Unlock()
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
	nd := ln.nodes[id]
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
// the mailbox of every other process, tagged with the destination shard
// and the sender's routing epoch.
func (ln *LiveNetwork) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	self := ln.nodes[from]
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
		ln.nodes[to].mb.push(envelope{from: from, to: to, shard: shard, epoch: epoch, payload: payload})
	}
}

// Crash halts a process: it stops handling queued and future messages
// (including a batch the dispatcher already swapped out of the mailbox)
// and its broadcasts are suppressed.
func (ln *LiveNetwork) Crash(id int) { ln.nodes[id].crashed.Store(true) }

// Recover brings a crashed process back. Messages the dispatcher dropped
// during the crash are lost; anything still queued at recovery time
// delivers normally (indistinguishable from in-flight delay — the live
// transport's crash drop is inherently racy). State repair is the
// anti-entropy layer's job, not the transport's.
func (ln *LiveNetwork) Recover(id int) { ln.nodes[id].crashed.Store(false) }

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
	for _, nd := range ln.nodes {
		nd.mb.close()
	}
	for _, nd := range ln.nodes {
		<-nd.done
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
		for _, nd := range ln.nodes {
			if nd.mb.waitEmpty() {
				stable = false
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
