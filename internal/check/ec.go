package check

import (
	"updatec/internal/history"
	"updatec/internal/spec"
)

// EC decides eventual consistency (Definition 5): there must exist a
// state s ∈ S such that only finitely many queries return values
// inconsistent with s. The package doc gives the finite encoding.
//
// The decider first asks the specification to explain the ω
// observations (exact for every built-in type: their queries reveal the
// state or an independent component of it). For specifications without
// a StateExplainer it falls back to searching the states reachable by
// update linearizations — sound but only complete for reachable
// convergence states; the fallback reports Undecided instead of a
// negative verdict in that case.
func EC(h *history.History) Result { return ECOpt(h, Options{}) }

// ECOpt is EC with search options.
func ECOpt(h *history.History, opt Options) Result {
	const name = "EC"
	obs := omegaObservations(h)
	if len(obs) == 0 {
		// No process converged on a repeated query: the finite prefix
		// may disagree arbitrarily (Definition 5's finite set), so the
		// history is trivially eventually consistent.
		return holds(name, &Witness{State: h.ADT().Initial()})
	}
	adt := h.ADT()
	if ex, ok := adt.(spec.StateExplainer); ok {
		s, found := ex.ExplainState(obs)
		if !found {
			return fails(name, "no state satisfies all ω queries")
		}
		if !stateMatchesAll(adt, s, obs) {
			// The explainer contract was violated; treat as a decider
			// bug rather than silently returning a wrong verdict.
			panic("check: ExplainState returned a non-explaining state")
		}
		return holds(name, &Witness{State: s})
	}
	// Fallback: search reachable final states.
	_, state, found, outOfBudget := interleave(h, h.UpdateChains(), opt, false, satisfiesOmega(h))
	switch {
	case found:
		return holds(name, &Witness{State: state})
	case outOfBudget:
		return undecided(name)
	default:
		// No reachable state works. A non-reachable state could still
		// exist; without an explainer we cannot rule it out.
		return Result{Criterion: name, Undecided: true,
			Reason: "no reachable state satisfies the ω queries and the type has no StateExplainer"}
	}
}

// satisfiesOmega is the final-state predicate of UC and EC's fallback:
// the state satisfies every ω query.
func satisfiesOmega(h *history.History) func(spec.State) bool {
	obs := omegaObservations(h)
	return func(s spec.State) bool { return stateMatchesAll(h.ADT(), s, obs) }
}
