package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"updatec"
	"updatec/internal/clock"
)

// metricDef names one metric; BENCHMARK.json repeats the list (the test
// keeps the two in step) and adds the regression bounds.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_s", "1/s", true},
	{"update_ns", "ns", false},
	{"ingest_ops_s", "1/s", true},
	{"visibility_us", "us", false},
	{"query_p50_us", "us", false},
	{"query_p99_us", "us", false},
	{"retained_bytes_per_op", "B", false},
}

// definedOn lists the workloads ISSUE 12 defines an end-to-end metric on;
// a metric without an entry is defined on all. The driver's contract wants
// every end-to-end metric from every workload, so the other workloads
// report it too, as a secondary row that -compare leaves out (README.md,
// "End-to-end metrics").
var definedOn = map[string][]string{
	"update_ns":             {"live-write", "wire-ingest"},
	"ingest_ops_s":          {"wire-ingest"},
	"visibility_us":         {"live-write", "wire-ingest", "wire-mixed", "sim-heal"},
	"query_p50_us":          {"live-read", "wire-mixed"},
	"query_p99_us":          {"live-read", "wire-mixed"},
	"retained_bytes_per_op": {"live-write", "wire-ingest", "sim-heal"},
}

func secondary(metric, workload string) bool {
	on, some := definedOn[metric]
	return some && !slices.Contains(on, workload)
}

var perLayer = []metricDef{
	{"updatec.update_p50_ns", "ns", false},
	{"updatec.update_p99_ns", "ns", false},
	{"updatec.allocs_per_op", "count", false},
	{"clock.tick_ns", "ns", false},
	{"spec.encode_ns", "ns", false},
	{"spec.decode_ns", "ns", false},
	{"spec.apply_ns", "ns", false},
	{"spec.wire_bytes_per_update", "B", false},
	{"core.log.insert_inorder_ns", "ns", false},
	{"core.log.insert_late_ns", "ns", false},
	{"core.log.late_ratio", "ratio", false},
	{"core.log.late_depth_p50", "count", false},
	{"core.engine.state_ns", "ns", false},
	{"core.engine.inserted_ns", "ns", false},
	{"core.engine.cache_hit_ratio", "ratio", true},
	{"core.replica.update_self_ns", "ns", false},
	{"core.replica.deliver_ns", "ns", false},
	{"core.replica.query_hit_ns", "ns", false},
	{"core.replica.query_miss_ns", "ns", false},
	{"core.replica.statekey_ns", "ns", false},
	{"core.sync.digest_ns", "ns", false},
	{"core.sync.reply_ns", "ns", false},
	{"core.sync.apply_ns_per_entry", "ns", false},
	{"core.sync.reply_bytes", "B", false},
	{"core.sync.applied", "count", false},
	{"core.sync.dup_dropped", "count", false},
	{"transport.live.broadcast_ns", "ns", false},
	{"transport.live.queue_wait_p50_us", "us", false},
	{"transport.live.sends_per_update", "count", false},
	{"transport.live.bytes_per_update", "B", false},
	{"transport.sim.step_ns", "ns", false},
	{"transport.sim.sends", "count", false},
	{"transport.sim.bytes", "B", false},
	{"transport.tcp.frame_encode_ns", "ns", false},
	{"transport.tcp.frame_decode_ns", "ns", false},
	{"transport.tcp.bcast_ops_s", "1/s", true},
	{"transport.tcp.frames_per_update", "count", false},
	{"transport.tcp.bytes_per_update", "B", false},
	{"transport.tcp.queue_depth_max", "count", false},
	{"wire.client.send_ns", "ns", false},
	{"wire.write_syscalls_per_update", "count", false},
	{"wire.daemon.apply_lag_ms", "ms", false},
	{"wire.client.flush_rtt_us", "us", false},
	{"wire.client.query_rtt_self_us", "us", false},
	{"unattributed_ns", "ns", false},
	{"trace_overhead_pct", "%", false},
}

// summary is a metric over the units of one run.
type summary struct {
	// Value is what the run reports: the median of the units, times and
	// rates scaled to the reference speed. Raw is the same median as the
	// clock gave it.
	Value float64 `json:"value"`
	Raw   float64 `json:"raw"`
	// Best is the quartile of the units on the metric's good side (the
	// first of a time, the third of a rate). Interference on a shared box
	// only makes a unit slower, so Best tracks the undisturbed cost; it is
	// printed for orientation and gates nothing.
	Best float64 `json:"best"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Spread is the distance between the first and third quartile of the
	// units as a share of their median — the measure the regression bounds
	// are stated in.
	Spread    float64 `json:"spread"`
	N         int     `json:"n"`
	Unit      string  `json:"unit"`
	Unstable  bool    `json:"unstable,omitempty"`  // Spread exceeds the metric's bound
	Secondary bool    `json:"secondary,omitempty"` // not one of the workloads ISSUE 12 defines the metric on
}

func summarize(xs []float64, d metricDef, bound float64) summary {
	s := summary{N: len(xs), Unit: d.unit}
	if len(xs) == 0 {
		return s
	}
	q1, q3 := quartiles(xs)
	s.Value, s.Min, s.Max = median(xs), slices.Min(xs), slices.Max(xs)
	s.Raw = s.Value
	if s.Best = q1; d.higher {
		s.Best = q3
	}
	if s.Value != 0 {
		s.Spread = (q3 - q1) / s.Value
	}
	s.Unstable = bound > 0 && s.Spread > bound
	return s
}

// spanRow is one line of the traced attribution table.
type spanRow struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// SelfNsPerOp divides the self time by the timed operations, so the
	// rows of the generator goroutine plus unattributed_ns sum to the
	// end-to-end per-op time.
	SelfNsPerOp float64 `json:"self_ns_per_op"`
}

// report is the outcome of one workload run.
type report struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	MeasuredS   float64            `json:"measured_s"` // median timed section of one unit
	RefMs       float64            `json:"ref_ms"`     // median time of the reference work (ref.go)
	RunTooShort bool               `json:"run_too_short,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
	// PerLayer holds the layer metrics measured on this workload; a layer
	// that is not on the workload's path is absent.
	PerLayer map[string]summary `json:"per_layer,omitempty"`
	Spans    []spanRow          `json:"spans,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
	PerOpNs  float64            `json:"per_op_ns,omitempty"`
}

// runConfig selects how much is measured.
type runConfig struct {
	seed    int64
	scale   float64
	seconds float64 // keep starting units until this much time has passed
	reps    int     // if > 0, run exactly this many measured units instead
	trace   bool
	bounds  map[string]float64
}

// minUnitS is the shortest timed section a full-size unit should have;
// below it the codebase has outgrown the frozen op counts.
const minUnitS = 0.25

// unitLoop calls one until the budget is used up, starting a new unit
// only while the previous one's duration still fits.
func (cfg runConfig) unitLoop(one func() error) error {
	start := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		if err := one(); err != nil {
			return err
		}
		if cfg.reps > 0 {
			if n+1 >= cfg.reps {
				return nil
			}
			continue
		}
		if time.Since(start)+time.Since(t0) > time.Duration(cfg.seconds*float64(time.Second)) {
			return nil
		}
	}
}

func runWorkload(w *workload, cfg runConfig) (*report, error) {
	// One discarded warm-up at a quarter of the size: page in the binary,
	// grow the heap, open the first sockets.
	if _, err := runUnit(w.gen(cfg.seed, cfg.scale/4), cfg.seed, nil, nil); err != nil {
		return nil, err
	}
	// Every unit of the run plays the same script.
	s := w.gen(cfg.seed, cfg.scale)
	rep := &report{Metrics: map[string]summary{}}
	e2e := map[string][]float64{}
	layers := map[string][]float64{}
	var timedS []float64
	var lastTrace *tracedRun
	ref := newRefPair()
	var refNs []float64

	err := cfg.unitLoop(func() error {
		refNs = append(refNs, ref.measure())
		u, err := runUnit(s, cfg.seed, nil, nil)
		if err != nil {
			return err
		}
		rep.Attempted += u.attempted
		rep.Failed += u.failed
		if u.values == nil {
			return nil // failed unit: counted, nothing to measure
		}
		for k, v := range u.values {
			e2e[k] = append(e2e[k], v)
		}
		timedS = append(timedS, float64(u.timedNs)/1e9)
		if !cfg.trace {
			return nil
		}
		tr, err := runTraced(s, cfg.seed, u)
		if err != nil {
			return err
		}
		rep.Attempted += tr.unit.attempted
		rep.Failed += tr.unit.failed
		for k, v := range tr.values {
			layers[k] = append(layers[k], v)
		}
		lastTrace = tr
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Times and rates are reported as on a box that does the reference
	// work in refNominalNs (ref.go).
	rep.RefMs = median(refNs) / 1e6
	for _, d := range endToEnd {
		sum := summarize(e2e[d.name], d, cfg.bounds[d.name])
		f := math.Pow(refNominalNs/median(refNs), float64(speedExponent(d.unit)))
		sum.Value, sum.Best, sum.Min, sum.Max = sum.Value*f, sum.Best*f, sum.Min*f, sum.Max*f
		sum.Secondary = secondary(d.name, w.name)
		rep.Metrics[d.name] = sum
	}
	rep.MeasuredS = median(timedS)
	rep.RunTooShort = cfg.scale >= 1 && rep.MeasuredS < minUnitS
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0 && len(timedS) > 0
	if cfg.trace && lastTrace != nil {
		if err := probeLayers(s, lastTrace.tr.arrivals, layers); err != nil {
			return nil, fmt.Errorf("isolated drives: %w", err)
		}
		rep.PerLayer = map[string]summary{}
		for _, d := range perLayer {
			// Layer prices carry no bound. The drives report the median of
			// their passes, the in-run prices the median of the traced units.
			if xs := layers[d.name]; len(xs) > 0 {
				rep.PerLayer[d.name] = summarize(xs, d, 0)
			}
		}
		rep.Spans, rep.PerOpNs = lastTrace.rows, lastTrace.perOpNs
		if rep.SpanFile, err = lastTrace.tr.writeSpans(w.name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedRun is one traced play and what was read off it.
type tracedRun struct {
	tr      *tracer
	unit    *unit
	driver  string
	values  map[string]float64
	rows    []spanRow
	perOpNs float64
}

// syscallWrites reads the process's write-syscall counter.
func syscallWrites() (uint64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// runTraced plays the script once more with tracing on; untraced is the
// unit the tracing overhead is taken against.
func runTraced(s *script, seed int64, untraced *unit) (*tracedRun, error) {
	run := &tracedRun{driver: s.driver, tr: newTracer(s.updates()), values: map[string]float64{}}
	syscw0, _ := syscallWrites()
	var inspectErr error
	u, err := runUnit(s, seed, run.tr, func(c cluster) { inspectErr = run.readCluster(c, s) })
	if err != nil {
		return nil, err
	}
	if inspectErr != nil {
		return nil, inspectErr
	}
	if u.values == nil {
		return nil, fmt.Errorf("traced run did not converge")
	}
	run.unit = u
	if syscw1, ok := syscallWrites(); ok {
		// The counter is the whole process's and covers the whole unit,
		// set-up and verification included; over the wire the update stream
		// dominates it, in process it stays near zero: no socket is written.
		run.values["wire.write_syscalls_per_update"] = float64(syscw1-syscw0) / float64(s.updates())
	}
	run.readSpans(u)
	perOp := float64(untraced.timedNs) / float64(untraced.ops)
	run.values["trace_overhead_pct"] = (run.perOpNs - perOp) / perOp * 100
	run.values["updatec.allocs_per_op"] = untraced.allocs
	run.values["updatec.update_p50_ns"], run.values["updatec.update_p99_ns"] = untraced.updP50, untraced.updP99
	return run, nil
}

// readSpans turns the span aggregates into layer metrics.
func (run *tracedRun) readSpans(u *unit) {
	tr, v := run.tr, run.values
	sp := func(id spanID) *spanAgg { return &tr.spans[id] }
	ops := float64(u.ops)
	run.perOpNs = float64(u.timedNs) / ops
	switch run.driver {
	case drvLive:
		v["transport.live.broadcast_ns"] = sp(spanBroadcast).selfPerOp()
		v["transport.live.queue_wait_p50_us"] = percentile(tr.waits, 50) / 1e3
	case drvSim:
		// What Deliver/Settle cost beyond the handlers they ran.
		steps := sp(spanRemote).calls.Load()
		self := sp(spanSettle).estSelf() + sp(spanDeliver).estSelf()
		v["transport.sim.step_ns"] = perCount(self, steps)
	case drvWire:
		v["wire.client.send_ns"] = sp(spanUpdate).perOp()
		v["wire.daemon.apply_lag_ms"] = sp(spanFlush).perOp() / 1e6
	}
	if run.driver != drvWire {
		// A daemon's replica cannot be reached from outside.
		v["core.replica.update_self_ns"] = sp(spanUpdate).selfPerOp()
		v["core.replica.deliver_ns"] = sp(spanRemote).perOp()
	}
	covered := 0.0
	for _, id := range rootSpans {
		covered += sp(id).estTotal()
	}
	v["unattributed_ns"] = (float64(u.timedNs) - covered) / ops
	for id := spanID(0); id < numSpans; id++ {
		if a := sp(id); a.calls.Load() > 0 {
			run.rows = append(run.rows, spanRow{
				Name: spanMeta[id].name, Layer: spanMeta[id].layer, Count: a.calls.Load(),
				TotalMs: a.estTotal() / 1e6, SelfMs: a.estSelf() / 1e6,
				SelfNsPerOp: a.estSelf() / ops,
			})
		}
	}
}

// readCluster reads the counters only the still-open cluster can give.
func (run *tracedRun) readCluster(c cluster, s *script) error {
	v := run.values
	updates := float64(s.updates())
	switch c := c.(type) {
	case coreSim:
		st := c.sim.Stats()
		v["transport.sim.sends"], v["transport.sim.bytes"] = float64(st.Sends), float64(st.Bytes)
		run.readReplicas(c.coreCluster)
		var applied, dups uint64
		for _, r := range c.reps {
			applied, dups = applied+r.Stats().SyncApplied, dups+r.Stats().DupDropped
		}
		v["core.sync.applied"], v["core.sync.dup_dropped"] = float64(applied), float64(dups)
		v["core.sync.reply_bytes"] = float64(c.replyBytes)
	case *coreCluster:
		st := c.live.Stats()
		v["transport.live.sends_per_update"] = float64(st.Sends) / updates
		v["transport.live.bytes_per_update"] = float64(st.Bytes) / updates
		run.readReplicas(c)
	case *wireCluster[*updatec.Set]:
		wc, err := c.inspect()
		if err != nil {
			return err
		}
		v["transport.tcp.frames_per_update"] = float64(wc.frames) / updates
		v["transport.tcp.bytes_per_update"] = float64(wc.bytes) / updates
		v["transport.tcp.queue_depth_max"] = float64(wc.queueMax)
		v["wire.client.flush_rtt_us"] = wc.flushRTTUs
		// probeLayers subtracts what the replica itself spends on a cached
		// read once the drive has priced it.
		v["wire.client.query_rtt_self_us"] = wc.queryRTTUs - wc.flushRTTUs
	}
	return nil
}

// readReplicas reads what the in-process replicas counted. The hit ratio
// is undefined, and left out, on a workload that asks no query.
func (run *tracedRun) readReplicas(c *coreCluster) {
	var late, inserts, hits, misses uint64
	for _, r := range c.reps {
		st := r.Stats()
		late, inserts = late+st.LateInserts, inserts+uint64(st.TotalOps)
		h, m := r.QueryCacheStats()
		hits, misses = hits+h, misses+m
	}
	run.values["core.log.late_ratio"] = perCount(float64(late), int64(inserts))
	if hits+misses > 0 {
		run.values["core.engine.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// probeLayers runs the isolated drives on the script's own operation
// stream and the arrival order the traced run recorded.
func probeLayers(s *script, arrivals []clock.Timestamp, layers map[string][]float64) error {
	out := map[string]float64{}
	if err := newProbeInput(s, arrivals).run(out); err != nil {
		return err
	}
	for k, v := range out {
		layers[k] = append(layers[k], v)
	}
	// The wire query round trip, net of an idle ping and of what the
	// replica itself spends on a cached read.
	rtt := layers["wire.client.query_rtt_self_us"]
	for i := range rtt {
		rtt[i] -= out["core.replica.query_hit_ns"] / 1e3
	}
	return nil
}
