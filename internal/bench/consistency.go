package bench

import (
	"fmt"
	"io"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// ConsistencyRow is one (object, level) cell of E22: the same update
// workload through the update-consistent construction and through the
// same construction with gated visibility (core.ClusterOptions.Causal).
type ConsistencyRow struct {
	Object string
	// Level is "uc" or "causal".
	Level string
	Ops   int
	// OpsPerSec is issued updates per second, wall clock from the first
	// update to the last delivery draining.
	OpsPerSec float64
	// Speedup is this row's OpsPerSec over the uc row for the same
	// object (1.0 on uc rows).
	Speedup float64
	// GatedPerUpdate is the arrivals held back for a missing dependency,
	// summed over the replicas, per issued update (0 on uc rows).
	GatedPerUpdate float64
	// Converged reports whether all replicas reached the same state
	// key: both levels converge for every object.
	Converged bool
	// Commutative records whether the object declares commutative
	// updates (spec.Commutative).
	Commutative bool
}

// ConsistencyResult reports experiment E22.
type ConsistencyResult struct {
	Rows []ConsistencyRow
	// CausalSpeedupCounter is causal over uc ops/sec on the commutative
	// counter.
	CausalSpeedupCounter float64
}

// consistencyObject is one workload of the E22 sweep.
type consistencyObject struct {
	name string
	adt  spec.UQADT
	gen  func(i int) spec.Update
}

// consistencyRun drives totalOps updates round-robin through a
// 3-replica live cluster at the given level and returns the wall-clock
// duration, the gated arrivals and whether the replicas converged.
func consistencyRun(obj consistencyObject, causal bool, totalOps int) (time.Duration, uint64, bool) {
	const n = 3
	net := transport.NewLive(n)
	defer net.Close()
	reps := core.Cluster(n, obj.adt, net, core.ClusterOptions{Causal: causal})

	t0 := time.Now()
	for i := 0; i < totalOps; i++ {
		reps[i%n].Update(obj.gen(i))
	}
	net.Drain()
	elapsed := time.Since(t0)

	converged, gated := true, uint64(0)
	for _, r := range reps {
		converged = converged && r.StateKey() == reps[0].StateKey()
		gated += r.Stats().Gated
	}
	return elapsed, gated, converged
}

// Consistency (E22) prices gated visibility: the same workload through
// the update-consistent construction and through the same log with
// causal visibility, which broadcasts a dependency vector with each
// update and holds back an arrival until its dependencies have landed.
// Both levels converge for every object — the causal level keeps the
// log's arbitration — so the difference is what the gate costs: the
// vectors and the held-back arrivals. (Before the gate the causal level
// was a second replica that folded in delivery order with no log, fast
// on commutative objects and divergent on the rest.)
func Consistency(w io.Writer, quickRun bool) ConsistencyResult {
	section(w, "E22", "consistency levels: gated (causal) vs plain update-consistent visibility, commutative and not")
	totalOps := 60_000
	if quickRun {
		totalOps = 12_000
	}
	objects := []consistencyObject{
		{name: "counter", adt: spec.Counter(), gen: func(i int) spec.Update { return spec.Add{N: 1} }},
		{name: "countermap", adt: spec.CounterMap(), gen: func(i int) spec.Update {
			return spec.AddKey{K: fmt.Sprintf("k%d", i%8), N: 1}
		}},
		{name: "log", adt: spec.Log(), gen: func(i int) spec.Update {
			return spec.Append{V: fmt.Sprintf("line-%d", i)}
		}},
	}
	var res ConsistencyResult
	t := newTable(w, "object", "level", "ops", "ops/sec", "speedup", "gated/update", "converged", "commutative")
	for _, obj := range objects {
		commutative := false
		if c, ok := obj.adt.(spec.Commutative); ok {
			commutative = c.CommutativeUpdates()
		}
		var ucBase float64
		for _, level := range []string{"uc", "causal"} {
			causal := level == "causal"
			consistencyRun(obj, causal, totalOps/10) // warmup
			elapsed, gated, converged := consistencyRun(obj, causal, totalOps)
			row := ConsistencyRow{
				Object:         obj.name,
				Level:          level,
				Ops:            totalOps,
				OpsPerSec:      float64(totalOps) / elapsed.Seconds(),
				GatedPerUpdate: float64(gated) / float64(totalOps),
				Converged:      converged,
				Commutative:    commutative,
			}
			if !causal {
				ucBase = row.OpsPerSec
				row.Speedup = 1
			} else if ucBase > 0 {
				row.Speedup = row.OpsPerSec / ucBase
				if obj.name == "counter" {
					res.CausalSpeedupCounter = row.Speedup
				}
			}
			res.Rows = append(res.Rows, row)
			t.row(row.Object, row.Level, row.Ops, fmt.Sprintf("%.0f", row.OpsPerSec),
				fmt.Sprintf("%.2fx", row.Speedup), fmt.Sprintf("%.3f", row.GatedPerUpdate),
				row.Converged, row.Commutative)
		}
	}
	t.flush()
	fmt.Fprintf(w, "\ncausal/uc ops-per-sec on the commutative counter: %.2fx\n", res.CausalSpeedupCounter)
	fmt.Fprintf(w, "(both levels converge for every object: the causal level is the same log with gated visibility)\n\n")
	return res
}
