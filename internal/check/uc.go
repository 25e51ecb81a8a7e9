package check

import "updatec/internal/history"

// UC decides update consistency (Definition 8): a finite set of queries
// Q' may be discarded such that some linearization of the remaining
// events belongs to L(O).
//
// The package doc gives the finite encoding.
func UC(h *history.History) Result { return UCOpt(h, Options{}) }

// UCOpt is UC with search options.
func UCOpt(h *history.History, opt Options) Result {
	const name = "UC"
	order, _, ok, outOfBudget := interleave(h, h.UpdateChains(), opt, false, satisfiesOmega(h))
	switch {
	case ok:
		return holds(name, &Witness{Linearization: append(order, h.OmegaQueries()...)})
	case outOfBudget:
		return undecided(name)
	default:
		return fails(name, "no update linearization reaches a state consistent with all ω queries")
	}
}

// ValidateUCWitness re-validates a UC witness independently of the
// search: the witness linearization must contain every update exactly
// once in program order, followed by ω queries that all hold in the
// final state.
func ValidateUCWitness(h *history.History, w *Witness) error {
	return validateUpdatesThenOmega(h, w.Linearization)
}
