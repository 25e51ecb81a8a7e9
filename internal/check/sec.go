package check

import (
	"updatec/internal/history"
	"updatec/internal/spec"
)

// SEC decides strong eventual consistency (Definition 6): there must
// exist an acyclic, reflexive visibility relation containing the
// program order such that (eventual delivery) every update is seen by
// all but finitely many events, (growth) visibility persists along the
// program order, and (strong convergence) any two queries seeing the
// same set of updates can be explained by a common state.
//
// The package doc gives the finite encoding.
func SEC(h *history.History) Result { return SECOpt(h, Options{}) }

// SECOpt is SEC with search options.
func SECOpt(h *history.History, opt Options) Result {
	const name = "SEC"
	updates := h.Updates()
	if len(updates) > 63 {
		return undecided(name)
	}
	ex, okEx := h.ADT().(spec.StateExplainer)
	if !okEx {
		return Result{Criterion: name, Undecided: true,
			Reason: "type has no StateExplainer; strong convergence cannot be decided"}
	}
	env := newVisEnv(h)
	// Precheck: all ω queries share V = U_H and must be jointly
	// explainable.
	if _, ok := ex.ExplainState(omegaObservations(h)); !ok && len(h.OmegaQueries()) > 0 {
		return fails(name, "ω queries (which all see U_H) are not jointly explainable")
	}
	budget := &counter{left: opt.budget()}
	adt := h.ADT()
	var group []spec.Observation
	// Strong convergence, per query: the queries already assigned the
	// same mask and this one are jointly explainable.
	sameStateExplains := func(qi int, mask uint64, assigned []uint64) bool {
		group = group[:0]
		for j, m := range assigned[:qi] {
			if m == mask {
				group = append(group, env.queries[j].Observation())
			}
		}
		group = append(group, env.queries[qi].Observation())
		s, found := ex.ExplainState(group)
		return found && stateMatchesAll(adt, s, group)
	}
	var assigned []uint64
	_, outOfBudget := run(func() bool {
		assigned = env.assign(budget, sameStateExplains, func(assigned []uint64) bool {
			return env.acyclicAssignment(assigned, nil)
		})
		return assigned != nil
	})
	switch {
	case assigned != nil:
		return holds(name, env.witness(assigned))
	case outOfBudget:
		return undecided(name)
	default:
		return fails(name, "no visibility assignment satisfies Definition 6")
	}
}

// visEnv holds the bitmask bookkeeping shared by the SEC, SUC and
// Insert-wins searches.
type visEnv struct {
	h       *history.History
	updates []*history.Event
	bit     map[int]uint64 // update event ID -> bit
	queries []*history.Event
	// prevQuery[qi] is the index (into queries) of the same process's
	// previous query, or -1.
	prevQuery []int
	// priorMask[qi] is the mask of program-order prior updates.
	priorMask []uint64
}

func newVisEnv(h *history.History) *visEnv {
	env := &visEnv{h: h, bit: map[int]uint64{}}
	env.updates = h.Updates()
	for i, u := range env.updates {
		env.bit[u.ID] = 1 << uint(i)
	}
	// Queries in (process, index) order so growth constraints flow
	// forward.
	lastQ := map[int]int{}
	for p := 0; p < h.NumProcs(); p++ {
		for _, e := range h.Proc(p) {
			if !e.IsQuery() {
				continue
			}
			qi := len(env.queries)
			env.queries = append(env.queries, e)
			var mask uint64
			for _, u := range h.PriorUpdates(e) {
				mask |= env.bit[u.ID]
			}
			env.priorMask = append(env.priorMask, mask)
			if prev, ok := lastQ[p]; ok {
				env.prevQuery = append(env.prevQuery, prev)
			} else {
				env.prevQuery = append(env.prevQuery, -1)
			}
			lastQ[p] = qi
		}
	}
	return env
}

// fullMask covers every update; the deciders refuse more than 63.
func (env *visEnv) fullMask() uint64 { return 1<<uint(len(env.updates)) - 1 }

// baseMask is the minimum visibility for query qi: program-order prior
// updates plus everything the process's previous query saw (growth).
func (env *visEnv) baseMask(qi int, assigned []uint64) uint64 {
	base := env.priorMask[qi]
	if prev := env.prevQuery[qi]; prev >= 0 {
		base |= assigned[prev]
	}
	return base
}

// assign is the visibility-assignment search behind SEC, SUC and
// Insert-wins. It gives each query, in (process, index) order, a mask
// of visible updates: every mask from the query's base up to all
// updates, or only all updates for an ω query (eventual delivery).
// admit filters a candidate mask given the masks of the queries before
// qi; complete judges the finished assignment. It returns the first
// assignment complete accepts, or nil. The caller must have at most 63
// updates.
func (env *visEnv) assign(budget *counter, admit func(qi int, mask uint64, assigned []uint64) bool,
	complete func(assigned []uint64) bool) []uint64 {
	assigned := make([]uint64, len(env.queries))
	full := env.fullMask()
	var dfs func(qi int) bool
	try := func(qi int, mask uint64) bool {
		if !admit(qi, mask, assigned) {
			return false
		}
		assigned[qi] = mask
		return dfs(qi + 1)
	}
	dfs = func(qi int) bool {
		budget.spend()
		if qi == len(env.queries) {
			return complete(assigned)
		}
		if env.queries[qi].Omega {
			return try(qi, full)
		}
		base := env.baseMask(qi, assigned)
		free := full &^ base
		for sub := free; ; sub = (sub - 1) & free {
			budget.spend()
			if try(qi, base|sub) {
				return true
			}
			if sub == 0 {
				return false
			}
		}
	}
	if !dfs(0) {
		return nil
	}
	return assigned
}

// acyclicAssignment checks acyclicity of program order plus the
// visibility edges induced by the assignment plus, when order is
// non-nil, the chain of the update total order.
func (env *visEnv) acyclicAssignment(assigned []uint64, order []*history.Event) bool {
	edges := poEdges(env.h)
	for qi, q := range env.queries {
		mask := assigned[qi]
		for i, u := range env.updates {
			if mask&(1<<uint(i)) != 0 {
				edges[u.ID] = append(edges[u.ID], q.ID)
			}
		}
	}
	for i := 0; i+1 < len(order); i++ {
		edges[order[i].ID] = append(edges[order[i].ID], order[i+1].ID)
	}
	return acyclic(len(env.h.Events()), edges)
}

// witness materializes the assignment into a Witness.
func (env *visEnv) witness(assigned []uint64) *Witness {
	vis := map[int][]int{}
	for qi, q := range env.queries {
		var ids []int
		for i, u := range env.updates {
			if assigned[qi]&(1<<uint(i)) != 0 {
				ids = append(ids, u.ID)
			}
		}
		vis[q.ID] = ids
	}
	return &Witness{Visibility: vis}
}
