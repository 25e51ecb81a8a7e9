package check

import "updatec/internal/history"

// SC decides sequential consistency: a single linearization of *all*
// events, consistent with the program order, must belong to L(O). The
// paper uses sequential consistency as the upper reference point —
// update consistency is "weaker than sequential consistency"
// (Conclusion) — and the deciders' tests verify that inclusion on
// randomized histories: SC ⇒ PC and SC ⇒ SUC-with-all-queries-kept.
func SC(h *history.History) Result { return SCOpt(h, Options{}) }

// SCOpt is SC with search options.
func SCOpt(h *history.History, opt Options) Result {
	const name = "SC"
	chains := make([][]*history.Event, h.NumProcs())
	for p := range chains {
		chains[p] = h.Proc(p)
	}
	order, _, ok, outOfBudget := interleave(h, chains, opt, false, nil)
	switch {
	case ok:
		return holds(name, &Witness{Linearization: order})
	case outOfBudget:
		return undecided(name)
	default:
		return fails(name, "no linearization of all events is in L(O)")
	}
}

// ValidateSCWitness re-validates an SC witness: the stored word must
// contain every event exactly once, respect program order, and belong
// to L(O).
func ValidateSCWitness(h *history.History, w *Witness) error {
	return validateLinearization(h, w.Linearization, func(*history.Event) bool { return true })
}
