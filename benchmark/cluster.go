package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"updatec"
)

// handle is what a script needs from one replica, whatever the object:
// the typed handles of the public API are adapted to it below.
type handle interface {
	update(arg string)
	contains(arg string) bool
	readAll() []string
}

type logHandle struct{ l *updatec.TextLog }

func (h logHandle) update(arg string) { h.l.Append(arg) }
func (h logHandle) readAll() []string { return h.l.Lines() }
func (h logHandle) contains(arg string) bool {
	for _, l := range h.l.Lines() {
		if l == arg {
			return true
		}
	}
	return false
}

type setHandle struct{ s *updatec.Set }

func (h setHandle) update(arg string)        { h.s.Insert(arg) }
func (h setHandle) readAll() []string        { return h.s.Elements() }
func (h setHandle) contains(arg string) bool { return h.s.Contains(arg) }

// cluster is what a script needs from the three replicas together.
type cluster interface {
	handles() []handle
	// settle returns once everything issued so far is delivered
	// everywhere. flushNs is the part spent waiting for the issuing
	// replica to take the updates in (non-zero only over the wire, where
	// an update call returns before the daemon has applied it).
	settle() (flushNs int64, err error)
	converged() bool
	// err reports a sticky connection error (wire clients).
	err() error
	close()
}

// simCluster is a cluster on the simulated network, the only one whose
// deliveries the script steps and whose links it can cut.
type simCluster interface {
	cluster
	deliver(steps int)
	partition() error
	heal() error
}

const settleTimeout = 60 * time.Second

var errNoConvergence = errors.New("no convergence within 60 s")

// pubCluster drives a cluster built by updatec.New with default options —
// the public in-process path, on the live transport or (WithSeed) the
// simulated one.
type pubCluster[H any] struct {
	c  *updatec.Cluster[H]
	hs []handle
}

// pubSim adds the simulated network's controls to a cluster built
// WithSeed.
type pubSim[H any] struct{ *pubCluster[H] }

func newPub[H any](obj updatec.Object[H], adapt func(H) handle, sim bool, seed int64) (cluster, error) {
	var opts []updatec.Option
	if sim {
		opts = append(opts, updatec.WithSeed(seed))
	}
	c, typed, err := updatec.New(3, obj, opts...)
	if err != nil {
		return nil, err
	}
	p := &pubCluster[H]{c: c}
	for _, h := range typed {
		p.hs = append(p.hs, adapt(h))
	}
	if sim {
		return pubSim[H]{p}, nil
	}
	return p, nil
}

func (p *pubCluster[H]) handles() []handle { return p.hs }
func (p *pubCluster[H]) settle() (int64, error) {
	p.c.Settle()
	return 0, nil
}
func (p *pubCluster[H]) converged() bool { return p.c.Converged() }
func (p *pubCluster[H]) err() error      { return nil }
func (p *pubCluster[H]) close()          { p.c.Close() }

func (p pubSim[H]) deliver(steps int) {
	for i := 0; i < steps && p.c.Deliver(); i++ {
	}
}
func (p pubSim[H]) partition() error { return p.c.Partition([]int{0}, []int{1, 2}) }
func (p pubSim[H]) heal() error      { return p.c.Heal() }

// wireCluster is three ListenAndServe daemons in this process on real
// loopback sockets, with one Dial client per daemon. It is the public
// wire path with default WireConfig; tracing, when on, wraps the client
// calls from outside (ListenAndServe has no injectable seam).
type wireCluster[H any] struct {
	nodes   []*updatec.WireNode[H]
	clients []*updatec.Client[H]
	hs      []handle
	dirty   []bool // client issued updates since the last settle
	tr      *tracer
	// Traced runs sample the daemons' peer queue depths every 10 ms.
	stopSampler chan struct{}
	queueMax    chan int
}

// dirtyHandle marks its client as having unflushed updates.
type dirtyHandle struct {
	handle
	dirty *bool
}

func (h dirtyHandle) update(arg string) {
	*h.dirty = true
	h.handle.update(arg)
}

// freeAddrs reserves n loopback addresses by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func newWire[H any](obj updatec.Object[H], adapt func(H) handle, tr *tracer) (cluster, error) {
	var lastErr error
	// A reserved port can be taken between release and re-bind; retry
	// with fresh ones.
	for attempt := 0; attempt < 5; attempt++ {
		w, err := tryWire(obj, adapt, tr)
		if err == nil {
			return w, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryWire[H any](obj updatec.Object[H], adapt func(H) handle, tr *tracer) (_ *wireCluster[H], err error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	w := &wireCluster[H]{dirty: make([]bool, 3), tr: tr}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for id := range addrs {
		node, err := updatec.ListenAndServe(obj, updatec.WireConfig{ID: id, Peers: addrs})
		if err != nil {
			return nil, err
		}
		w.nodes = append(w.nodes, node)
	}
	// Ready means every peer send link is up: until then a daemon
	// discards outbound envelopes (the reconnect digest would repair
	// them, but that is not the path being measured).
	deadline := time.Now().Add(10 * time.Second)
	for !w.linked() {
		if time.Now().After(deadline) {
			return nil, errors.New("wire: peer links did not come up within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	for i, node := range w.nodes {
		c, err := updatec.Dial(obj, node.Addr())
		if err != nil {
			return nil, err
		}
		w.clients = append(w.clients, c)
		if _, err := c.StateKey(); err != nil {
			return nil, err
		}
		w.hs = append(w.hs, dirtyHandle{adapt(c.Handle()), &w.dirty[i]})
	}
	if tr != nil {
		w.stopSampler, w.queueMax = make(chan struct{}), make(chan int, 1)
		go w.sampleQueues(w.stopSampler)
	}
	return w, nil
}

// sampleQueues records the deepest per-peer send queue seen until stop
// closes, then reports it on queueMax.
func (w *wireCluster[H]) sampleQueues(stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deepest := 0
	for {
		select {
		case <-stop:
			w.queueMax <- deepest
			return
		case <-tick.C:
			for _, node := range w.nodes {
				for _, p := range node.Stats().Peers {
					deepest = max(deepest, p.QueueDepth)
				}
			}
		}
	}
}

// stopSampling ends sampleQueues and returns the deepest queue it saw; it
// is a no-op when the sampler is not running.
func (w *wireCluster[H]) stopSampling() int {
	if w.stopSampler == nil {
		return 0
	}
	close(w.stopSampler)
	w.stopSampler = nil
	return <-w.queueMax
}

// wireCounters is what a traced wire run reads off the daemons.
type wireCounters struct {
	frames, bytes uint64 // peer frames and bytes sent, all daemons
	queueMax      int
	flushRTTUs    float64 // ping/pong on an idle link, median
	queryRTTUs    float64 // whole-state read served from the query cache, median
}

// inspect stops the sampler and probes the idle links. Call it once,
// after the script has been played.
func (w *wireCluster[H]) inspect() (wireCounters, error) {
	var wc wireCounters
	wc.queueMax = w.stopSampling()
	for _, node := range w.nodes {
		for _, p := range node.Stats().Peers {
			wc.frames += p.SentFrames
			wc.bytes += p.SentBytes
		}
	}
	const probes = 101
	flush, query := make([]float64, 0, probes), make([]float64, 0, probes)
	w.hs[0].readAll() // fill the daemon's query cache
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		if err := w.clients[0].Flush(); err != nil {
			return wc, err
		}
		t1 := time.Now()
		w.hs[0].readAll()
		flush = append(flush, float64(t1.Sub(t0))/1e3)
		query = append(query, float64(time.Since(t1))/1e3)
	}
	wc.flushRTTUs, wc.queryRTTUs = percentile(flush, 50), percentile(query, 50)
	return wc, nil
}

func (w *wireCluster[H]) linked() bool {
	for _, node := range w.nodes {
		for _, p := range node.Stats().Peers {
			if !p.Connected {
				return false
			}
		}
	}
	return true
}

func (w *wireCluster[H]) handles() []handle { return w.hs }

// settle flushes every client that issued updates (the daemon has then
// applied them and written them to its peer sockets), then polls the
// three state keys through the clients until they are equal.
func (w *wireCluster[H]) settle() (int64, error) {
	t0 := w.tr.begin(spanFlush)
	start := time.Now()
	for i, c := range w.clients {
		if w.dirty[i] {
			if err := c.Flush(); err != nil {
				w.tr.end(spanFlush, t0, 1)
				return 0, err
			}
			w.dirty[i] = false
		}
	}
	flushNs := int64(time.Since(start))
	w.tr.end(spanFlush, t0, 1)
	t0 = w.tr.begin(spanPoll)
	defer func() { w.tr.end(spanPoll, t0, 1) }()
	deadline := start.Add(settleTimeout)
	for {
		equal, err := w.keysEqual()
		if err != nil || equal {
			return flushNs, err
		}
		if time.Now().After(deadline) {
			return flushNs, errNoConvergence
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *wireCluster[H]) keysEqual() (bool, error) {
	want, err := w.clients[0].StateKey()
	if err != nil {
		return false, err
	}
	for _, c := range w.clients[1:] {
		key, err := c.StateKey()
		if err != nil || key != want {
			return false, err
		}
	}
	return true, nil
}

func (w *wireCluster[H]) converged() bool {
	equal, err := w.keysEqual()
	return err == nil && equal
}

func (w *wireCluster[H]) err() error {
	for i, c := range w.clients {
		if err := c.Err(); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

func (w *wireCluster[H]) close() {
	w.stopSampling()
	for _, c := range w.clients {
		c.Close()
	}
	for _, n := range w.nodes {
		n.Close()
	}
}

// newCluster builds the cluster a script is played on. Untraced runs (tr
// nil) always go through the public constructors with default options;
// traced in-process runs are rebuilt the way New builds them, with the
// transport and codec seams decorated (trace.go). Both wire workloads use
// the set.
func newCluster(s *script, seed int64, tr *tracer) (cluster, error) {
	asSet := func(h *updatec.Set) handle { return setHandle{h} }
	switch {
	case s.driver == drvWire:
		return newWire(updatec.SetObject(), asSet, tr)
	case tr != nil:
		return newCoreCluster(s.driver == drvSim, s.object, seed, tr)
	case s.object == objLog:
		return newPub(updatec.TextLogObject(), func(h *updatec.TextLog) handle { return logHandle{h} }, s.driver == drvSim, seed)
	default:
		return newPub(updatec.SetObject(), asSet, s.driver == drvSim, seed)
	}
}
