package transport

import "sync"

// mailbox is the batch-drain queue shared by both asynchronous
// transports: LiveNetwork's per-process dispatcher and
// TCPNetwork's per-peer sender both drain it with one lock round-trip
// per backlog (swap the whole queue out, never pop one envelope per
// acquisition). A mailbox is unbounded when max is zero — the
// wait-freedom configuration LiveNetwork uses — or bounded, in which
// case push blocks until the consumer frees space, which is the TCP
// path's backpressure. The bound counts updates, not envelopes: an
// envelope carrying k updates (one write step's) weighs k (envelope.count), so a
// stalled consumer blocks its producers after the same number of
// updates however they were batched.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue and the consumer's batch buffer ping-pong via swapWait.
	queue   []envelope
	bytes   int // payload bytes queued (peer-stats observability)
	updates int // updates queued, the sum of the envelopes' weights
	max     int // bound on updates; 0 = unbounded
	// discard drops every push immediately (counted in droppedDown):
	// the TCP path sets it while a peer link is down, so broadcasts to
	// a dead peer never block or accumulate — the on-reconnect digest
	// exchange repairs the loss.
	discard bool
	// droppedDown counts envelopes lost to a down or closed consumer
	// (discard mode, or push after close).
	droppedDown uint64
	closed      bool
	busy        bool // consumer is processing a swapped-out batch
	// kicked releases a consumer blocked on an empty queue with an
	// empty batch — the TCP sender's link-death wakeup.
	kicked bool
}

func newMailbox(max int) *mailbox {
	m := &mailbox{max: max}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Push outcomes.
const (
	pushQueued = iota
	// pushDroppedDown: the consumer is down or closed (discard mode);
	// the envelope is gone — the reconnect-time digest exchange is the
	// repair path.
	pushDroppedDown
)

// push enqueues e. On a bounded mailbox already holding max updates it
// blocks until the consumer takes the queue; an envelope that fits
// nowhere else may overshoot the bound by its own weight.
func (m *mailbox) push(e envelope) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.discard {
		m.droppedDown++
		return pushDroppedDown
	}
	for m.max > 0 && m.updates >= m.max {
		m.cond.Wait()
		if m.closed || m.discard {
			m.droppedDown++
			return pushDroppedDown
		}
	}
	m.queue = append(m.queue, e)
	m.bytes += len(e.payload)
	m.updates += e.weight()
	m.cond.Broadcast()
	return pushQueued
}

// swapWait blocks until the mailbox is non-empty (or closed), then
// swaps the whole queue for the caller's recycled buffer and marks the
// consumer busy. It returns ok=false when the mailbox is closed and
// drained — the consumer's exit signal.
func (m *mailbox) swapWait(buf []envelope) ([]envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed && !m.kicked {
		m.cond.Wait()
	}
	m.kicked = false
	if m.closed && len(m.queue) == 0 {
		return buf, false
	}
	if len(m.queue) == 0 {
		// Kicked awake with nothing queued: hand back an empty batch so
		// the consumer can re-check its exit conditions.
		m.busy = true
		return buf[:0], true
	}
	batch := m.queue
	m.queue = buf[:0]
	m.bytes, m.updates = 0, 0
	m.busy = true
	// Wake blocked pushers (the bound just cleared) and Drain waiters.
	m.cond.Broadcast()
	return batch, true
}

// kick wakes a consumer blocked on an empty queue without enqueuing
// anything; swapWait then returns an empty batch once.
func (m *mailbox) kick() {
	m.mu.Lock()
	m.kicked = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// idle marks the consumer done with its swapped-out batch and wakes
// waitEmpty waiters.
func (m *mailbox) idle() {
	m.mu.Lock()
	m.busy = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// setDiscard flips discard mode; entering it clears the queue (the
// envelopes count as dropped) and releases blocked pushers.
func (m *mailbox) setDiscard(on bool) {
	m.mu.Lock()
	m.discard = on
	if on {
		m.droppedDown += uint64(len(m.queue))
		m.queue = m.queue[:0]
		m.bytes, m.updates = 0, 0
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// close shuts the mailbox: pushes are rejected, and the consumer exits
// once the remaining queue is drained.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// depth reports the queued envelope count, payload bytes, the
// cumulative drop counter, and whether the consumer is mid-batch.
func (m *mailbox) depth() (n, bytes int, droppedDown uint64, busy bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue), m.bytes, m.droppedDown, m.busy
}

// waitEmpty blocks until the mailbox is empty and its consumer idle
// (or the mailbox is closed), reporting whether it had to wait —
// LiveNetwork.Drain repeats its pass until nothing waited.
func (m *mailbox) waitEmpty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	waited := false
	for (len(m.queue) > 0 || m.busy) && !m.closed {
		waited = true
		m.cond.Wait()
	}
	return waited
}
