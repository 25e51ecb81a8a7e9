package bench

import (
	"bytes"
	"fmt"
	"testing"

	"updatec/internal/sim"
	"updatec/internal/spec"
)

func TestPartitionHealShapes(t *testing.T) {
	var buf bytes.Buffer
	res := PartitionHeal(&buf)
	byKind := map[sim.SetKind]PartitionRow{}
	for _, row := range res.Rows {
		byKind[row.Kind] = row
	}
	// Every implementation stays available; all but eager converge.
	for kind, row := range byKind {
		if !row.AvailableInBoth {
			t.Fatalf("%s unavailable under partition", kind)
		}
		if kind == sim.Eager {
			continue
		}
		if !row.ConvergedAfterHeal {
			t.Fatalf("%s did not converge after heal", kind)
		}
	}
	// The three UC variants agree on the healed state.
	if byKind[sim.UCSet].Final != byKind[sim.UCSetUndo].Final ||
		byKind[sim.UCSet].Final != byKind[sim.UCSetCheckpoint].Final {
		t.Fatalf("uc engines disagree after heal: %+v", res.Rows)
	}
}

// TestConsistencyShapes: E22's causal rows are the log with gated
// visibility, so both levels converge on the non-commutative log as well
// as on the counters.
func TestConsistencyShapes(t *testing.T) {
	for _, obj := range []consistencyObject{
		{name: "counter", adt: spec.Counter(), gen: func(int) spec.Update { return spec.Add{N: 1} }},
		{name: "log", adt: spec.Log(), gen: func(i int) spec.Update { return spec.Append{V: fmt.Sprint(i)} }},
	} {
		for _, causal := range []bool{false, true} {
			if _, gated, converged := consistencyRun(obj, causal, 3000); !converged || (!causal && gated != 0) {
				t.Fatalf("%s causal=%v: converged=%v gated=%d", obj.name, causal, converged, gated)
			}
		}
	}
}

// BenchmarkApplySyncInterleaved is E18's two-sided variant as a Go
// benchmark: one anti-entropy round after a cut both sides wrote
// through, per size; ns/entry staying flat across the sizes is the
// linear repair.
func BenchmarkApplySyncInterleaved(b *testing.B) {
	for _, n := range twoSidedSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			applied := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reps := twoSidedCut(n)
				b.StartTimer()
				applied += hubRepair(reps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(applied), "ns/entry")
		})
	}
}
