package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// meter collects the samples of one unit: one play of a script on a fresh
// cluster. Buffers are sized from the script before the heap baseline is
// taken, so they do not show up as retained bytes.
type meter struct {
	t0            time.Time
	upd, qry, vis []float64 // ns: per-update (burst ÷ length), per query, update→visible
	updBusy       int64     // ns inside update bursts
	flush         int64     // ns waiting for the issuing daemon to take updates in
	ops           int       // timed updates + queries + awaits
	updates       int       // timed updates
	attempted     int
	failed        int
}

func newMeter(s *script) *meter {
	return &meter{
		t0:  time.Now(),
		upd: make([]float64, 0, s.count(s.ops, opUpdate)),
		qry: make([]float64, 0, s.count(s.ops, opContains)+s.count(s.ops, opReadAll)),
		vis: make([]float64, 0, s.count(s.ops, opSettle)+s.count(s.ops, opAwait)),
	}
}

func (m *meter) clock() int64 { return int64(time.Since(m.t0)) }

// play runs ops in order on the cluster; timed is false for the preload,
// which records nothing. Consecutive updates are timed as one burst of at
// most burstLen and divided by its length, so the per-update figure carries
// one clock read per 64 calls, not two per call.
func (m *meter) play(c cluster, ops []op, timed bool, tr *tracer) error {
	hs := c.handles()
	var lastUpd int64 // when the latest update returned; 0 once accounted
	for i := 0; i < len(ops); i++ {
		o := &ops[i]
		if tr != nil {
			// One update burst in fineEvery gets its nested spans timed;
			// every other kind of op does.
			group := tr.op.Add(1)
			tr.fine = o.kind != opUpdate || group%fineEvery == 0
		}
		switch o.kind {
		case opUpdate:
			j := i + 1
			for j < len(ops) && j-i < burstLen && ops[j].kind == opUpdate {
				j++
			}
			s0 := tr.begin(spanUpdate)
			t0 := m.clock()
			for k := i; k < j; k++ {
				hs[ops[k].h].update(ops[k].arg)
			}
			t1 := m.clock()
			tr.end(spanUpdate, s0, j-i)
			lastUpd = t1
			if timed {
				m.upd = append(m.upd, float64(t1-t0)/float64(j-i))
				m.updBusy += t1 - t0
				m.updates += j - i
				m.ops += j - i
				m.attempted += j - i
			}
			i = j - 1
		case opContains, opReadAll:
			s0 := tr.begin(spanQuery)
			t0 := m.clock()
			ok := true
			if o.kind == opContains {
				got := hs[o.h].contains(o.arg)
				ok = o.want == wantAny || got == (o.want == wantTrue)
			} else {
				n := int32(len(hs[o.h].readAll()))
				ok = n >= o.n && n <= o.m
			}
			t1 := m.clock()
			tr.end(spanQuery, s0, 1)
			if !timed {
				break
			}
			m.qry = append(m.qry, float64(t1-t0))
			m.ops++
			m.attempted++
			if !ok {
				m.failed++
			}
		case opSettle:
			s0 := tr.begin(spanSettle)
			flushNs, err := c.settle()
			t1 := m.clock()
			tr.end(spanSettle, s0, 1)
			if err != nil {
				return err
			}
			if timed {
				m.flush += flushNs
				if lastUpd > 0 {
					m.vis = append(m.vis, float64(t1-lastUpd))
				}
			}
			lastUpd = 0
		case opAwait:
			s0 := tr.begin(spanAwait)
			deadline := time.Now().Add(settleTimeout)
			seen := true
			for !hs[o.h].contains(o.arg) {
				if time.Now().After(deadline) {
					seen = false
					break
				}
			}
			t1 := m.clock()
			tr.end(spanAwait, s0, 1)
			m.attempted++
			m.ops++
			if !seen {
				m.failed++
			} else if lastUpd > 0 {
				m.vis = append(m.vis, float64(t1-lastUpd))
			}
		case opDeliver, opPartition, opHeal:
			if err := m.fault(c, o, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// fault plays the ops only the simulated network has.
func (m *meter) fault(c cluster, o *op, tr *tracer) error {
	sim, ok := c.(simCluster)
	if !ok {
		return fmt.Errorf("op %d needs the simulated network", o.kind)
	}
	switch o.kind {
	case opDeliver:
		s0 := tr.begin(spanDeliver)
		sim.deliver(int(o.n))
		tr.end(spanDeliver, s0, 1)
		return nil
	case opPartition:
		return sim.partition()
	}
	s0 := tr.begin(spanHeal)
	err := sim.heal()
	tr.end(spanHeal, s0, 1)
	return err
}

// unit is the outcome of one play.
type unit struct {
	values    map[string]float64 // the end-to-end metrics
	attempted int
	failed    int
	timedNs   int64
	ops       int     // timed updates + queries + awaits
	allocs    float64 // heap allocations per timed op
	updP50    float64 // ns per update, median and 99th percentile over the bursts
	updP99    float64
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runUnit builds a fresh cluster on the script's driver, plays the script
// and verifies the outcome. Set-up is cluster construction, preload, dial
// and readiness: everything between the heap baseline and the first timed
// op. inspect, if set, sees the cluster right after the timed section, so
// the counters it reads cover set-up and the timed section only.
func runUnit(s *script, seed int64, tr *tracer, inspect func(cluster)) (*unit, error) {
	m := newMeter(s)
	heap0 := heapAfterGC()
	setup0 := time.Now()
	c, err := newCluster(s, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("building %s cluster: %w", s.driver, err)
	}
	defer c.close()
	if err := m.play(c, s.preload, false, nil); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	setupS := time.Since(setup0).Seconds()

	mallocs0 := mallocs()
	start := m.clock()
	if tr != nil {
		tr.on.Store(true)
	}
	err = m.play(c, s.ops, true, tr)
	timedNs := m.clock() - start
	if tr != nil {
		tr.on.Store(false)
	}
	if err != nil {
		return failedUnit(m, s), nil
	}
	mallocs1 := mallocs()
	retained := float64(heapAfterGC()) - float64(heap0)
	if inspect != nil {
		inspect(c)
	}
	if !c.converged() || c.err() != nil {
		return failedUnit(m, s), nil
	}
	// Verification reads every replica's final state. They are the first
	// reads after the last write, and the only reads a write-only workload
	// has: its query metrics are taken from them.
	reads := make([]float64, 0, 3)
	for _, h := range c.handles() {
		t0 := m.clock()
		state := h.readAll()
		reads = append(reads, float64(m.clock()-t0))
		m.attempted++
		m.failed += s.checkFinal(state)
	}
	if len(m.qry) == 0 {
		m.qry = reads
	}
	m.failed = min(m.failed, m.attempted)

	u := &unit{
		attempted: m.attempted, failed: m.failed,
		timedNs: timedNs, ops: m.ops,
		allocs: float64(mallocs1-mallocs0) / float64(m.ops),
		updP50: percentile(m.upd, 50), updP99: percentile(m.upd, 99),
	}
	u.values = map[string]float64{
		"setup_s":               setupS,
		"ops_s":                 float64(m.ops) / (float64(timedNs) / 1e9),
		"update_ns":             float64(m.updBusy) / float64(m.updates),
		"ingest_ops_s":          float64(m.updates) / (float64(m.updBusy+m.flush) / 1e9),
		"visibility_us":         percentile(m.vis, 50) / 1e3,
		"query_p50_us":          percentile(m.qry, 50) / 1e3,
		"query_p99_us":          percentile(m.qry, 99) / 1e3,
		"retained_bytes_per_op": retained / float64(s.updates()),
	}
	return u, nil
}

// failedUnit is a unit that did not converge (or lost a connection): the
// whole run counts as failed.
func failedUnit(m *meter, s *script) *unit {
	n := max(m.attempted, s.updates())
	return &unit{attempted: n, failed: n}
}

// percentile is the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the driver's spread is computed with
// it): linear interpolation at positions (n+1)/4 and 3(n+1)/4. With fewer
// than two values both are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		frac := float64(k*(n+1))/4 - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
