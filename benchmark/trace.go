package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"updatec/internal/clock"
	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Tracing from outside the program. Spans are recorded by the harness
// around its own calls and by decorators at the two seams the repo
// offers — transport.Network and spec.Codec — so no file outside
// benchmark/ changes. Every span feeds a per-name aggregate (calls, total
// time, time covered by child spans); one operation in 64 is also written
// to an in-memory buffer that is flushed to benchmark/out when the run
// ends. A layer's self time is total minus children.
//
// A clock read costs about 40 ns and an update crosses seven spans, so
// timing every one of them would add a third to a 1.5 µs operation. The
// harness-level spans are always timed (one pair of reads per burst of
// 64); the spans nested inside an update are timed on one burst in eight,
// and on the dispatcher goroutines for one message in eight, and scaled by
// the exact call counts.

// spanID names one kind of span. The nesting is static (an encode always
// happens inside an update or a sync reply), so a layer's self time can
// be computed from per-name aggregates alone.
type spanID int

// Harness-level spans are opened by the script player; the rest by the
// decorators and the traced clusters.
const (
	spanUpdate spanID = iota
	spanQuery
	spanSettle
	spanDeliver
	spanAwait
	spanHeal
	spanEncode
	spanDecode
	spanBroadcast
	spanSelf
	spanRemote
	spanDigest
	spanReply
	spanApply
	spanFlush
	spanPoll
	numSpans
	noSpan spanID = -1
)

var spanMeta = [numSpans]struct{ name, layer string }{
	spanUpdate:    {"update", "updatec"},
	spanQuery:     {"query", "core.engine"},
	spanSettle:    {"settle", "transport"},
	spanDeliver:   {"deliver", "transport"},
	spanAwait:     {"await", "transport"},
	spanHeal:      {"heal", "core.sync"},
	spanEncode:    {"encode", "spec"},
	spanDecode:    {"decode", "spec"},
	spanBroadcast: {"broadcast", "transport"},
	spanSelf:      {"self_deliver", "core.log"},
	spanRemote:    {"remote_deliver", "core.replica"},
	spanDigest:    {"sync.digest", "core.sync"},
	spanReply:     {"sync.reply", "core.sync"},
	spanApply:     {"sync.apply", "core.sync"},
	spanFlush:     {"flush", "wire"},
	spanPoll:      {"poll", "wire"},
}

// rootSpans are the harness-level spans: together they cover the
// generator goroutine's whole timed section.
var rootSpans = []spanID{spanUpdate, spanQuery, spanSettle, spanDeliver, spanAwait, spanHeal}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	calls atomic.Int64 // operations covered, timed or not
	timed atomic.Int64 // operations covered by timed spans
	total atomic.Int64 // ns, timed spans
	// fine is the part of total during which nested spans were timed too,
	// and child the time those direct children covered.
	fine  atomic.Int64
	child atomic.Int64
}

// estTotal scales the timed total to all calls.
func (s *spanAgg) estTotal() float64 {
	return perCount(float64(s.total.Load())*float64(s.calls.Load()), s.timed.Load())
}

// estSelf removes the share of the time that child spans covered.
func (s *spanAgg) estSelf() float64 {
	t := s.estTotal()
	if fine := s.fine.Load(); fine > 0 {
		t *= 1 - float64(s.child.Load())/float64(fine)
	}
	return t
}

// perOp and selfPerOp divide by the operations the spans covered.
func (s *spanAgg) perOp() float64     { return perCount(s.estTotal(), s.calls.Load()) }
func (s *spanAgg) selfPerOp() float64 { return perCount(s.estSelf(), s.calls.Load()) }

func perCount(v float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// sampleEvery is how many operations share one record in the span file,
// fineEvery how many bursts (or messages) share one timed set of nested
// spans.
const (
	sampleEvery = 64
	fineEvery   = 8
)

type spanRec struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Op     int64  `json:"op"`
}

// tracer collects one traced run. The stack belongs to the generator
// goroutine; everything dispatcher goroutines touch is atomic or under
// mu. A nil *tracer is the untraced pass: begin and end are
// no-ops.
type tracer struct {
	t0 time.Time
	// on gates every span: the harness switches it on for the timed main
	// section only, so set-up and read-back traffic through the
	// decorators is not accounted.
	on    atomic.Bool
	spans [numSpans]spanAgg
	stack []spanID
	// fine says whether spans nested in the harness-level span being
	// played are timed (generator goroutine only).
	fine bool
	op   atomic.Int64 // number of the burst or single op being played

	mu    sync.Mutex
	recs  []spanRec
	waits []float64 // ns from Broadcast called to remote handler entered
	// arrivals is the order in which updates reached replica 2's log,
	// replayed by the isolated core.log drive.
	arrivals []clock.Timestamp

	// sent[slot] is when a sampled message was broadcast (see msgKey).
	sent [sentSlots]atomic.Int64
}

const sentSlots = 1 << 12

func newTracer(updates int) *tracer {
	return &tracer{
		t0:       time.Now(),
		recs:     make([]spanRec, 0, 1<<16),
		waits:    make([]float64, 0, 1<<16),
		arrivals: make([]clock.Timestamp, 0, updates),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span on the generator goroutine. It returns -1 when the
// span is not timed — tracing is off, or this is a nested span of a burst
// that is only counted — which end takes as "nothing to close".
func (t *tracer) begin(id spanID) int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	if len(t.stack) > 0 && !t.fine {
		t.spans[id].calls.Add(1)
		return -1
	}
	t.stack = append(t.stack, id)
	return t.now()
}

// end closes the span opened last; n is how many operations it covered.
func (t *tracer) end(id spanID, start int64, n int) {
	if start < 0 {
		return
	}
	stop := t.now()
	t.stack = t.stack[:len(t.stack)-1]
	parent := noSpan
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.add(id, parent, start, stop, n, t.fine, t.op.Load()%sampleEvery == 0)
}

// add accounts a timed span; it is safe from any goroutine. fine says
// whether the span's own children were timed; a sampled span is also kept
// for the span file.
func (t *tracer) add(id, parent spanID, start, stop int64, n int, fine, sampled bool) {
	s := &t.spans[id]
	s.calls.Add(int64(n))
	s.timed.Add(int64(n))
	s.total.Add(stop - start)
	if fine {
		s.fine.Add(stop - start)
	}
	if parent != noSpan {
		t.spans[parent].child.Add(stop - start)
	}
	if !sampled {
		return
	}
	rec := spanRec{Name: spanMeta[id].name, Layer: spanMeta[id].layer, Start: start, End: stop, Op: t.op.Load()}
	if parent != noSpan {
		rec.Parent = spanMeta[parent].name
	}
	t.mu.Lock()
	if len(t.recs) < cap(t.recs) {
		t.recs = append(t.recs, rec)
	}
	t.mu.Unlock()
}

// writeSpans flushes the sampled spans to benchmark/out/trace-<name>.jsonl.
func (t *tracer) writeSpans(name string) (string, error) {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recs {
		if err := enc.Encode(&t.recs[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedNet decorates a transport the way core.NewShardedReplica uses it
// (router attachment and epoch-tagged broadcast), so the traced cluster
// takes the same code path as one built by updatec.New.
type tracedNet struct {
	transport.ResizableNetwork
	tr *tracer
	// inline is true on the simulated network, where remote handlers run
	// on the generator goroutine inside Deliver/Settle.
	inline bool
	// codecs[id] is replica id's codec decorator; the remote handler tells
	// it whether the message it is about to decode is a timed one.
	codecs []*tracedCodec
}

// sentSlot is where the send time of a queue-wait sample is parked. A
// broadcast payload is identified on both sides of the transport by its
// own Lamport timestamp, so sender and receivers agree on which messages
// to time without sharing state.
func sentSlot(ts clock.Timestamp) int {
	return int(ts.Clock/sampleEvery*4+uint64(ts.Proc)) % sentSlots
}

func (n *tracedNet) AttachRouter(id int, h transport.EpochHandler) {
	tr := n.tr
	n.ResizableNetwork.AttachRouter(id, func(from, shard, epoch int, payload []byte) {
		ts, _, _ := clock.DecodeTimestamp(payload)
		switch {
		case from == id:
			// Self-delivery: synchronous, inside the Broadcast span.
			t0 := tr.begin(spanSelf)
			h(from, shard, epoch, payload)
			tr.end(spanSelf, t0, 1)
		case n.inline:
			t0 := tr.begin(spanRemote)
			h(from, shard, epoch, payload)
			tr.end(spanRemote, t0, 1)
		case !tr.on.Load():
			n.codecs[id].timed = false
			h(from, shard, epoch, payload)
		case ts.Clock%fineEvery != 0:
			n.codecs[id].timed = false
			tr.spans[spanRemote].calls.Add(1)
			h(from, shard, epoch, payload)
		default:
			n.codecs[id].timed = true
			sampled := ts.Clock%sampleEvery == 0
			start := tr.now()
			h(from, shard, epoch, payload)
			tr.add(spanRemote, noSpan, start, tr.now(), 1, true, sampled)
			if sent := tr.sent[sentSlot(ts)].Load(); sampled && sent > 0 {
				tr.mu.Lock()
				if len(tr.waits) < cap(tr.waits) {
					tr.waits = append(tr.waits, float64(start-sent))
				}
				tr.mu.Unlock()
			}
		}
		if id == 2 {
			tr.mu.Lock()
			tr.arrivals = append(tr.arrivals, ts)
			tr.mu.Unlock()
		}
	})
}

func (n *tracedNet) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	if ts, _, _ := clock.DecodeTimestamp(payload); ts.Clock%sampleEvery == 0 && n.tr.on.Load() {
		n.tr.sent[sentSlot(ts)].Store(n.tr.now())
	}
	t0 := n.tr.begin(spanBroadcast)
	n.ResizableNetwork.BroadcastShardEpoch(from, shard, epoch, payload)
	n.tr.end(spanBroadcast, t0, 1)
}

// tracedCodec decorates one replica's update codec. Encoding always runs
// on the generator goroutine (inside Update or SyncReply). Decoding runs
// there on the simulated network; on the live one it runs inside a remote
// handler on the replica's dispatcher goroutine, which sets timed first.
type tracedCodec struct {
	inner  spec.AppendCodec
	tr     *tracer
	inline bool
	timed  bool
}

func (c *tracedCodec) EncodeUpdate(u spec.Update) ([]byte, error) {
	return c.AppendUpdate(nil, u)
}

func (c *tracedCodec) AppendUpdate(dst []byte, u spec.Update) ([]byte, error) {
	t0 := c.tr.begin(spanEncode)
	out, err := c.inner.AppendUpdate(dst, u)
	c.tr.end(spanEncode, t0, 1)
	return out, err
}

func (c *tracedCodec) DecodeUpdate(b []byte) (spec.Update, error) {
	switch {
	case c.inline:
		t0 := c.tr.begin(spanDecode)
		u, err := c.inner.DecodeUpdate(b)
		c.tr.end(spanDecode, t0, 1)
		return u, err
	case !c.timed:
		if c.tr.on.Load() {
			c.tr.spans[spanDecode].calls.Add(1)
		}
		return c.inner.DecodeUpdate(b)
	}
	start := c.tr.now()
	u, err := c.inner.DecodeUpdate(b)
	c.tr.add(spanDecode, spanRemote, start, c.tr.now(), 1, false, false)
	return u, err
}

// coreCluster is the traced in-process cluster: built the way updatec.New
// builds one (sharded replicas with one shard and the default engine) on
// a decorated transport and codec.
type coreCluster struct {
	reps []*core.ShardedReplica
	live *transport.LiveNetwork
	sim  *transport.SimNetwork
	hs   []handle
	tr   *tracer
	// replyBytes sums the anti-entropy reply payloads of heal().
	replyBytes int
}

func objectSpec(object string) (spec.UQADT, spec.AppendCodec) {
	if object == objLog {
		return spec.Log(), spec.Log()
	}
	return spec.Set(), spec.Set()
}

func newCoreCluster(sim bool, object string, seed int64, tr *tracer) (cluster, error) {
	c := &coreCluster{tr: tr}
	var inner transport.ResizableNetwork
	if sim {
		c.sim = transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
		inner = c.sim
	} else {
		c.live = transport.NewLiveSharded(3, 1)
		inner = c.live
	}
	adt, codec := objectSpec(object)
	net := &tracedNet{ResizableNetwork: inner, tr: tr, inline: sim}
	for id := 0; id < 3; id++ {
		// What core.ShardedCluster does, with a codec decorator per replica.
		tc := &tracedCodec{inner: codec, tr: tr, inline: sim}
		net.codecs = append(net.codecs, tc)
		r := core.NewShardedReplica(core.ShardedConfig{ID: id, N: 3, Shards: 1, ADT: adt, Codec: tc, Net: net})
		c.reps = append(c.reps, r)
		c.hs = append(c.hs, coreHandle{r, object})
	}
	if sim {
		return coreSim{c}, nil
	}
	return c, nil
}

// coreSim adds the simulated network's controls.
type coreSim struct{ *coreCluster }

// coreHandle does what the typed handles of objects.go do, on a replica
// the harness built itself.
type coreHandle struct {
	r      *core.ShardedReplica
	object string
}

func (h coreHandle) update(arg string) {
	if h.object == objLog {
		h.r.Update(spec.Append{V: arg})
	} else {
		h.r.Update(spec.Ins{V: arg})
	}
}

func (h coreHandle) readAll() []string {
	if h.object == objLog {
		return h.r.Query(spec.ReadLog{}).(spec.Lines)
	}
	return h.r.Query(spec.Read{}).(spec.Elems)
}

func (h coreHandle) contains(arg string) bool {
	for _, e := range h.readAll() {
		if e == arg {
			return true
		}
	}
	return false
}

func (c *coreCluster) handles() []handle { return c.hs }

func (c *coreCluster) settle() (int64, error) {
	if c.sim != nil {
		c.sim.Quiesce()
		return 0, nil
	}
	for _, r := range c.reps {
		r.FlushIntake()
	}
	c.live.Drain()
	return 0, nil
}

func (c coreSim) deliver(steps int) { c.sim.StepN(steps) }

func (c coreSim) partition() error {
	c.sim.Partition([]int{0}, []int{1, 2})
	return nil
}

// heal is Cluster.Heal taken apart: remove the cut, then the hub (replica
// 0) pulls from every peer and every peer pulls from the hub, each pull
// spanned as digest, reply and apply.
func (c coreSim) heal() error {
	c.sim.Heal()
	for pass := 0; pass < 2; pass++ {
		for q := 1; q < len(c.reps); q++ {
			dst, src := c.reps[0].Shard(0), c.reps[q].Shard(0)
			if pass == 1 {
				dst, src = src, dst
			}
			t0 := c.tr.begin(spanDigest)
			d := dst.Digest()
			c.tr.end(spanDigest, t0, 1)
			t0 = c.tr.begin(spanReply)
			payload, err := src.SyncReply(d)
			c.tr.end(spanReply, t0, 1)
			if err != nil {
				return fmt.Errorf("anti-entropy reply: %w", err)
			}
			c.replyBytes += len(payload)
			t0 = c.tr.begin(spanApply)
			n, err := dst.ApplySync(payload)
			c.tr.end(spanApply, t0, n)
			if err != nil {
				return fmt.Errorf("anti-entropy apply: %w", err)
			}
		}
	}
	return nil
}

func (c *coreCluster) converged() bool {
	want := c.reps[0].StateKey()
	for _, r := range c.reps[1:] {
		if r.StateKey() != want {
			return false
		}
	}
	return true
}

func (c *coreCluster) err() error { return nil }

func (c *coreCluster) close() {
	if c.live != nil {
		c.live.Close()
	}
}
