package check

import (
	"fmt"

	"updatec/internal/history"
)

// CC decides causal consistency for histories whose events carry
// dependency vectors (Event.Deps): pipelined consistency strengthened
// so that each per-process linearization also respects the recorded
// causal order. The package doc gives the finite encoding; it is PC's
// search with one gate, so CC ⇒ PC always.
func CC(h *history.History) Result { return CCOpt(h, Options{}) }

// CCOpt is CC with search options.
func CCOpt(h *history.History, opt Options) Result { return perProcess(h, "CC", true, opt) }

// ValidateCCWitness re-validates a CC witness: each per-process word
// must be a valid PC witness word and additionally respect every
// recorded dependency vector.
func ValidateCCWitness(h *history.History, w *Witness) error {
	if err := ValidatePCWitness(h, w); err != nil {
		return fmt.Errorf("check: CC witness: %w", err)
	}
	for p := 0; p < h.NumProcs(); p++ {
		cnt := make([]uint64, h.NumProcs())
		for _, e := range w.PerProc[p] {
			for k, d := range e.Deps {
				if cnt[k] < d {
					return fmt.Errorf("check: CC witness for process %d: event %d consumed with only %d of process %d's %d required updates", p, e.ID, cnt[k], k, d)
				}
			}
			if e.IsUpdate() {
				cnt[e.Proc]++
			}
		}
	}
	return nil
}
