package check

import (
	"updatec/internal/history"
	"updatec/internal/spec"
)

// SUC decides strong update consistency (Definition 9): there must
// exist a visibility relation (as in SEC) and a *total order* ≤
// containing it such that each query is explained by replaying exactly
// the updates it sees, in ≤ order (strong sequential convergence).
//
// The package doc gives the finite encoding.
func SUC(h *history.History) Result { return SUCOpt(h, Options{}) }

// SUCOpt is SUC with search options.
func SUCOpt(h *history.History, opt Options) Result {
	const name = "SUC"
	updates := h.Updates()
	if len(updates) > 63 {
		return undecided(name)
	}
	adt := h.ADT()
	env := newVisEnv(h)
	full := env.fullMask()
	budget := &counter{left: opt.budget()}
	omegaObs := omegaObservations(h)

	var witnessResult *Witness
	ok, outOfBudget := run(func() bool {
		// Enumerate update linearizations by DFS over update chains:
		// every order, not every state, so no memo.
		chains := h.UpdateChains()
		pos := make([]int, len(chains))
		var order []*history.Event
		var perOrder func() bool
		perOrder = func() bool {
			budget.spend()
			if len(order) == len(updates) {
				return tryOrder(env, adt, order, full, omegaObs, budget, &witnessResult)
			}
			for i, ch := range chains {
				if pos[i] == len(ch) {
					continue
				}
				pos[i]++
				order = append(order, ch[pos[i]-1])
				if perOrder() {
					return true
				}
				order = order[:len(order)-1]
				pos[i]--
			}
			return false
		}
		return perOrder()
	})
	switch {
	case ok:
		return holds(name, witnessResult)
	case outOfBudget:
		return undecided(name)
	default:
		return fails(name, "no update order and visibility assignment satisfies Definition 9")
	}
}

// tryOrder attempts to complete one candidate update order into a full
// SUC witness.
func tryOrder(env *visEnv, adt spec.UQADT, order []*history.Event,
	full uint64, omegaObs []spec.Observation, budget *counter,
	out **Witness) bool {
	replayCache := map[uint64]spec.State{}
	// replay returns the state after applying the updates of mask in
	// candidate order.
	replay := func(mask uint64) spec.State {
		if s, ok := replayCache[mask]; ok {
			return s
		}
		s := adt.Initial()
		for _, e := range order {
			if mask&env.bit[e.ID] != 0 {
				s = adt.Apply(s, e.U)
			}
		}
		replayCache[mask] = s
		return s
	}
	// Fast precheck: the full replay must satisfy every ω query.
	if len(omegaObs) > 0 && !stateMatchesAll(adt, replay(full), omegaObs) {
		return false
	}
	// Strong sequential convergence, per query: replaying the visible
	// updates in candidate order yields the declared output.
	replayExplains := func(qi int, mask uint64, _ []uint64) bool {
		q := env.queries[qi]
		return adt.EqualOutput(adt.Query(replay(mask), q.QIn), q.QOut)
	}
	assigned := env.assign(budget, replayExplains, func(assigned []uint64) bool {
		return env.acyclicAssignment(assigned, order)
	})
	if assigned == nil {
		return false
	}
	w := env.witness(assigned)
	w.UpdateOrder = append([]*history.Event(nil), order...)
	*out = w
	return true
}
