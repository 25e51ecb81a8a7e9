package check

import (
	"fmt"

	"updatec/internal/history"
)

// PC decides pipelined consistency (Definition 7), the UQ-ADT
// generalization of PRAM: for every maximal chain p of the program
// order — in the communicating-sequential-processes model, every
// process — some linearization of (all updates ∪ p's events) must
// belong to L(O).
//
// The package doc gives the finite encoding.
func PC(h *history.History) Result { return PCOpt(h, Options{}) }

// PCOpt is PC with search options.
func PCOpt(h *history.History, opt Options) Result { return perProcess(h, "PC", false, opt) }

// perProcess runs one interleaving search per process p, over p's full
// sequence plus every other process's updates, and collects the words
// into a PerProc witness. PC and CC differ only in causal, CC's gate.
func perProcess(h *history.History, name string, causal bool, opt Options) Result {
	what := "linearization"
	if causal {
		what = "causally-gated linearization"
	}
	updateChains := h.UpdateChains()
	perProc := map[int][]*history.Event{}
	for p := 0; p < h.NumProcs(); p++ {
		chains := [][]*history.Event{h.Proc(p)}
		for q, ch := range updateChains {
			if q != p {
				chains = append(chains, ch)
			}
		}
		order, _, ok, outOfBudget := interleave(h, chains, opt, causal, nil)
		switch {
		case outOfBudget:
			return undecided(name)
		case !ok:
			return fails(name, "process %d: no %s of U_H ∪ p explains the local view", p, what)
		}
		perProc[p] = order
	}
	return holds(name, &Witness{PerProc: perProc})
}

// ValidatePCWitness re-validates a PC witness: for every process the
// stored word must contain exactly the updates of the history plus that
// process's queries, respect program order, and belong to L(O).
func ValidatePCWitness(h *history.History, w *Witness) error {
	for p := 0; p < h.NumProcs(); p++ {
		lin, ok := w.PerProc[p]
		if !ok {
			return fmt.Errorf("check: PC witness missing process %d", p)
		}
		if err := validateLinearization(h, lin, func(e *history.Event) bool {
			return e.IsUpdate() || e.Proc == p
		}); err != nil {
			return fmt.Errorf("check: PC witness for process %d: %w", p, err)
		}
	}
	return nil
}
