package bench

import (
	"fmt"
	"io"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// ReadMostlyResult reports experiment E15, the read-path cache suite:
// repeat reads against unchanged logs (the read-mostly common case)
// versus reads that pay a rebuild.
type ReadMostlyResult struct {
	Rows []PerfRow `json:"rows"`
	// CachedSpeedup is the hit/miss ratio of the plain replica query —
	// the acceptance gate of the PR 3 read-path overhaul (≥5x).
	CachedSpeedup float64 `json:"cached_speedup"`
	// MergedSpeedup is the settled/all-dirty ratio of the sharded
	// whole-state read.
	MergedSpeedup float64 `json:"merged_speedup"`
	// SessionOverhead is the session-hit/query-hit ratio: the cost of
	// the per-query coverage check once covered session reads ride the
	// query-output cache (PR 4 closed the raw-vs-session gap; ~1 means
	// a session read of a settled replica costs a raw read). omitempty
	// keeps the field out of re-marshaled historical entries recorded
	// before it existed (a measured ratio can never be 0).
	SessionOverhead float64 `json:"session_overhead,omitempty"`
}

// ReadMostly (E15) measures what the version-keyed caches buy on
// read-mostly workloads. (a) Replica query cache: a settled replica
// serves a repeat query from the output cache (query-hit, the
// allocation-free path) versus a query forced to rebuild by a log
// mutation (query-miss, which also pays the interleaved update).
// (b) Sharded merged-state cache: a whole-state read on a 4-shard
// counter map when no shard changed (merged-hit), when one shard
// changed (merged-1dirty), and when every shard changed
// (merged-alldirty, the old every-call cost).
func ReadMostly(w io.Writer, quickRun bool) ReadMostlyResult {
	section(w, "E15", "read-mostly caches: query outputs and sharded merged state")
	iters := 200000
	if quickRun {
		iters = 20000
	}
	var res ReadMostlyResult
	add := func(r PerfRow) { res.Rows = append(res.Rows, r) }

	{ // (a) one-shard replica query cache, 256-update settled set.
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 6})
		reps := core.ShardedCluster(2, 1, spec.Set(), net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewUndoEngine() },
		})
		for k := 0; k < 256; k++ {
			reps[0].Update(spec.Ins{V: fmt.Sprint(k % 40)})
		}
		net.Quiesce()
		rep := reps[0]
		rep.Query(spec.Read{})
		hit := measure("query-hit", iters, func() { rep.Query(spec.Read{}) })
		add(hit)
		i := 0
		miss := measure("query-miss(update+query)", iters/8, func() {
			rep.Update(spec.Ins{V: fmt.Sprint(i % 40)})
			rep.Query(spec.Read{})
			i++
		})
		add(miss)
		if hit.NsPerOp > 0 {
			res.CachedSpeedup = miss.NsPerOp / hit.NsPerOp
		}
		// Session read of the same settled replica: the coverage check
		// and the cached query share one shared-lock acquisition
		// (Replica.SessionQuery), so a covered session read should cost
		// a raw cached read.
		sess := core.NewShardedSession(rep)
		sess.Update(spec.Ins{V: "mine"})
		net.Quiesce()
		sessHit := measure("session-hit", iters, func() {
			if _, ok := sess.TryQuery(spec.Read{}); !ok {
				panic("bench: settled replica must cover the session")
			}
		})
		add(sessHit)
		if hit.NsPerOp > 0 {
			res.SessionOverhead = sessHit.NsPerOp / hit.NsPerOp
		}
	}

	{ // (b) sharded whole-state reads, 4 shards, 32-key counter map.
		const shards = 4
		keys := shardKeyNames(32)
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 8})
		reps := core.ShardedCluster(2, shards, spec.CounterMap(), net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewUndoEngine() },
		})
		for k := 0; k < 2048; k++ {
			reps[0].Update(spec.AddKey{K: keys[k%len(keys)], N: 1})
		}
		net.Quiesce()
		rep := reps[0]
		hit := measure("merged-hit", iters/4, func() { rep.Query(spec.ReadAllCtrs{}) })
		add(hit)
		add(measure("merged-1dirty(update+query)", iters/16, func() {
			rep.Update(spec.AddKey{K: keys[0], N: 1})
			rep.Query(spec.ReadAllCtrs{})
		}))
		dirty := measure("merged-alldirty(updates+query)", iters/64, func() {
			for k := range keys {
				rep.Update(spec.AddKey{K: keys[k], N: 1})
			}
			rep.Query(spec.ReadAllCtrs{})
		})
		add(dirty)
		if hit.NsPerOp > 0 {
			res.MergedSpeedup = dirty.NsPerOp / hit.NsPerOp
		}
	}

	t := newTable(w, "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range res.Rows {
		t.row(r.Name, fmt.Sprintf("%.1f", r.NsPerOp), r.BytesPerOp, r.AllocsPerOp)
	}
	t.flush()
	fmt.Fprintf(w, "reading: repeat reads of unchanged state are allocation-free cache hits;\n")
	fmt.Fprintf(w, "a dirty shard re-folds only itself (compare 1dirty vs alldirty); a\n")
	fmt.Fprintf(w, "covered session read rides the same cache (session-hit vs query-hit)\n")
	return res
}

// StepRow is one line of the E16 backlog-step series.
type StepRow struct {
	Backlog int  `json:"backlog"`
	FIFO    bool `json:"fifo"`
	// NsPerDelivery is the cost of one broadcast plus full delivery to
	// the other 7 processes, divided by the 7 deliveries, against a
	// standing backlog of the given size.
	NsPerDelivery float64 `json:"ns_per_delivery"`
}

// StepBacklogResult reports experiment E16.
type StepBacklogResult struct {
	Rows []StepRow `json:"rows"`
	// Flatness is the worst/best NsPerDelivery ratio across backlog
	// sizes of the non-FIFO series; ~1 means the adversary's pick is
	// independent of the backlog (it used to scale linearly with it).
	Flatness float64 `json:"flatness"`
}

// StepBacklog (E16) measures the adversary's per-delivery cost as the
// standing backlog grows 64x: with the eligible index the pick is
// O(1) in the unrestricted regime and O(log pending) under FIFO,
// where it used to scan every pending envelope per step.
func StepBacklog(w io.Writer, quickRun bool) StepBacklogResult {
	section(w, "E16", "adversary step cost vs standing backlog (eligible index)")
	const n = 8
	iters := 100000
	backlogs := []int{128, 1024, 8192}
	if quickRun {
		iters = 10000
		backlogs = []int{128, 1024}
	}
	var res StepBacklogResult
	t := newTable(w, "fifo", "backlog", "ns/delivery")
	for _, fifo := range []bool{false, true} {
		minNs, maxNs := 0.0, 0.0
		for _, backlog := range backlogs {
			net := transport.NewSim(transport.SimOptions{N: n, Seed: 1, FIFO: fifo})
			for i := 0; i < n; i++ {
				net.Attach(i, func(int, []byte) {})
			}
			payload := []byte("0123456789abcdef")
			for net.Pending() < backlog {
				net.Broadcast(net.Pending()%n, payload)
			}
			i := 0
			r := measure("", iters, func() {
				net.Broadcast(i%n, payload)
				net.StepN(n - 1)
				i++
			})
			row := StepRow{Backlog: backlog, FIFO: fifo, NsPerDelivery: r.NsPerOp / float64(n-1)}
			res.Rows = append(res.Rows, row)
			t.row(fifo, row.Backlog, fmt.Sprintf("%.1f", row.NsPerDelivery))
			if minNs == 0 || row.NsPerDelivery < minNs {
				minNs = row.NsPerDelivery
			}
			if row.NsPerDelivery > maxNs {
				maxNs = row.NsPerDelivery
			}
		}
		if !fifo && minNs > 0 {
			res.Flatness = maxNs / minNs
		}
	}
	t.flush()
	fmt.Fprintf(w, "reading: ns/delivery stays flat as the backlog grows 64x — the pick is\n")
	fmt.Fprintf(w, "O(eligible), not O(pending); FIFO pays one O(log pending) tree descent\n")
	return res
}
