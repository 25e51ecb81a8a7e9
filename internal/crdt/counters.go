package crdt

import (
	"fmt"

	"updatec/internal/transport"
)

// PNCounter is the increment/decrement counter CRDT. Counter updates
// commute, so eager application converges; the paper (§VII-C) names
// the counter as the canonical "pure CRDT" for which the naive
// implementation is already update consistent — experiment E7's
// counter row verifies that claim by comparing this baseline to the
// spec.Counter replica built on Algorithm 1.
type PNCounter struct {
	base
	value int64
}

// NewPNCounter attaches a counter replica to the transport.
func NewPNCounter(id int, net transport.Network) *PNCounter {
	c := &PNCounter{base: base{id: id, net: net}}
	c.attach(c.handle)
	return c
}

// Name identifies the implementation.
func (*PNCounter) Name() string { return "pn-counter" }

// Add broadcasts a signed delta.
func (c *PNCounter) Add(n int64) {
	c.net.Broadcast(c.id, mustMarshal(setMsg{Kind: "add", N: n}))
}

// Inc adds one.
func (c *PNCounter) Inc() { c.Add(1) }

// Dec subtracts one.
func (c *PNCounter) Dec() { c.Add(-1) }

func (c *PNCounter) handle(_ int, payload []byte) {
	m := mustUnmarshal(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.value += m.N
}

// Value returns the current count.
func (c *PNCounter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value
}

// StateKey canonically renders the state.
func (c *PNCounter) StateKey() string { return fmt.Sprint(c.Value()) }

// LWWRegister is the last-writer-wins register CRDT: the baseline
// counterpart of Algorithm 2's one-register cell (they implement the
// same policy, which is why Algorithm 2 is both a CRDT-style O(1)
// object AND update consistent — register writes totally ordered by
// timestamps are a linearization of the updates).
type LWWRegister struct {
	base
	clock uint64
	ts    [2]uint64
	val   string
	init  string
}

// NewLWWRegister attaches a register replica to the transport.
func NewLWWRegister(id int, init string, net transport.Network) *LWWRegister {
	r := &LWWRegister{base: base{id: id, net: net}, init: init, val: init}
	r.attach(r.handle)
	return r
}

// Name identifies the implementation.
func (*LWWRegister) Name() string { return "lww-register" }

// Write broadcasts a timestamped value.
func (r *LWWRegister) Write(v string) {
	r.mu.Lock()
	r.clock++
	cl := r.clock
	r.mu.Unlock()
	r.net.Broadcast(r.id, mustMarshal(setMsg{Kind: "add", V: v, Cl: cl, Pid: r.id}))
}

func (r *LWWRegister) handle(_ int, payload []byte) {
	m := mustUnmarshal(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Cl > r.clock {
		r.clock = m.Cl
	}
	ts := [2]uint64{m.Cl, uint64(m.Pid)}
	if tsLess(r.ts, ts) {
		r.ts = ts
		r.val = m.V
	}
}

// Read returns the current value.
func (r *LWWRegister) Read() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.val
}

// StateKey canonically renders the state.
func (r *LWWRegister) StateKey() string { return r.Read() }
