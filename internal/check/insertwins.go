package check

import (
	"fmt"

	"updatec/internal/history"
	"updatec/internal/spec"
)

// InsertWins decides strong eventual consistency for the Insert-wins
// set (Definition 10), the concurrent specification of the OR-set: the
// history must be SEC for the set S_Val with a visibility relation that
// additionally determines every read output by the rule "x is present
// iff some visible insertion of x is not itself visible to any visible
// deletion of x".
//
// The decider searches over (a) the per-query visible update sets, as
// in SEC, and (b) the visibility edges between insertions and deletions
// of the same element (the only update-update edges the rule consults;
// any other update-update edge only adds closure and acyclicity
// obligations, so a satisfying relation exists iff one exists in this
// restricted vocabulary). Each candidate is growth-closed and then
// checked against all of Definition 6 and the Insert-wins rule.
func InsertWins(h *history.History) Result { return InsertWinsOpt(h, Options{}) }

// InsertWinsOpt is InsertWins with search options.
func InsertWinsOpt(h *history.History, opt Options) Result {
	const name = "IW"
	if _, ok := h.ADT().(spec.SetSpec); !ok {
		return fails(name, "Insert-wins is defined for the set type, not %s", h.ADT().Name())
	}
	updates := h.Updates()
	if len(updates) > 63 {
		return undecided(name)
	}
	env := newVisEnv(h)
	pairs := insDelPairs(h)
	budget := &counter{left: opt.budget()}

	var witnessResult *Witness
	ok, outOfBudget := run(func() bool {
		// Outer loop: the free insertion→deletion edges.
		var free []iwPair
		forced := map[[2]int]bool{}
		for _, pr := range pairs {
			switch {
			case h.Before(pr.ins, pr.del):
				forced[[2]int{pr.ins.ID, pr.del.ID}] = true
			case h.Before(pr.del, pr.ins):
				// An edge would contradict program order (cycle).
			default:
				free = append(free, pr)
			}
		}
		if len(free) > 20 {
			panic(budgetErr{})
		}
		for choice := uint64(0); choice < 1<<uint(len(free)); choice++ {
			budget.spend()
			edges := map[[2]int]bool{}
			for k, v := range forced {
				edges[k] = v
			}
			for i, pr := range free {
				if choice&(1<<uint(i)) != 0 {
					edges[[2]int{pr.ins.ID, pr.del.ID}] = true
				}
			}
			if w := iwAssign(env, h, edges, budget); w != nil {
				witnessResult = w
				return true
			}
		}
		return false
	})
	switch {
	case ok:
		return holds(name, witnessResult)
	case outOfBudget:
		return undecided(name)
	default:
		return fails(name, "no visibility relation satisfies Definition 10")
	}
}

// iwPair is an insertion and a deletion of the same element.
type iwPair struct {
	ins, del *history.Event
}

// insDelPairs lists all (insertion, deletion) pairs over the same
// element.
func insDelPairs(h *history.History) []iwPair {
	var pairs []iwPair
	for _, u := range h.Updates() {
		ins, ok := u.U.(spec.Ins)
		if !ok {
			continue
		}
		for _, v := range h.Updates() {
			if del, ok := v.U.(spec.Del); ok && del.V == ins.V {
				pairs = append(pairs, iwPair{ins: u, del: v})
			}
		}
	}
	return pairs
}

// iwAssign searches per-query visibility masks under fixed
// insertion→deletion edges, then closure-checks the complete relation.
func iwAssign(env *visEnv, h *history.History, edges map[[2]int]bool, budget *counter) *Witness {
	assigned := env.assign(budget, func(qi int, mask uint64, _ []uint64) bool {
		return iwOutputMatches(env, env.queries[qi], mask, edges)
	}, func(assigned []uint64) bool {
		return iwValidate(env, h, assigned, edges)
	})
	if assigned == nil {
		return nil
	}
	w := env.witness(assigned)
	for k, v := range edges {
		if v {
			w.UpdateVis = append(w.UpdateVis, k)
		}
	}
	return w
}

// iwPresent is the Insert-wins rule for one element under visibility
// mask and the given insertion→deletion edges: x is present iff some
// visible insertion of x is not visible to any visible deletion of x.
func iwPresent(env *visEnv, x string, mask uint64, edges map[[2]int]bool) bool {
	for i, u := range env.updates {
		ins, isIns := u.U.(spec.Ins)
		if !isIns || ins.V != x || mask&(1<<uint(i)) == 0 {
			continue
		}
		wins := true
		for j, v := range env.updates {
			del, isDel := v.U.(spec.Del)
			if !isDel || del.V != x || mask&(1<<uint(j)) == 0 {
				continue
			}
			if edges[[2]int{u.ID, v.ID}] {
				wins = false
				break
			}
		}
		if wins {
			return true
		}
	}
	return false
}

// iwOutputMatches evaluates the Insert-wins rule for query q under
// visibility mask and the given insertion→deletion edges: a read R
// must report exactly the present elements, a membership query C(v)
// the presence of v.
func iwOutputMatches(env *visEnv, q *history.Event, mask uint64, edges map[[2]int]bool) bool {
	if has, ok := q.QIn.(spec.Has); ok {
		want, ok := q.QOut.(spec.Bool)
		return ok && iwPresent(env, has.V, mask, edges) == bool(want)
	}
	want, ok := q.QOut.(spec.Elems)
	if !ok {
		return false
	}
	wantSet := map[string]bool{}
	for _, x := range want {
		wantSet[x] = true
	}
	// Collect the elements mentioned by any update.
	elements := map[string]bool{}
	for _, u := range env.updates {
		switch op := u.U.(type) {
		case spec.Ins:
			elements[op.V] = true
		case spec.Del:
			elements[op.V] = true
		}
	}
	for x := range elements {
		if iwPresent(env, x, mask, edges) != wantSet[x] {
			return false
		}
	}
	// Elements read but never updated cannot be present.
	for x := range wantSet {
		if !elements[x] {
			return false
		}
	}
	return true
}

// iwValidate growth-closes the candidate relation and re-checks every
// Definition 6/10 obligation on the closed relation.
func iwValidate(env *visEnv, h *history.History, assigned []uint64, edges map[[2]int]bool) bool {
	// vis as pair set: update → event. Queries only relate through
	// program order, which the closure treats implicitly.
	vis := map[[2]int]bool{}
	for qi, q := range env.queries {
		for i, u := range env.updates {
			if assigned[qi]&(1<<uint(i)) != 0 {
				vis[[2]int{u.ID, q.ID}] = true
			}
		}
	}
	for k, v := range edges {
		if v {
			vis[k] = true
		}
	}
	// Program-order pairs with update sources.
	for _, u := range h.Updates() {
		for _, e := range h.Proc(u.Proc)[u.Index+1:] {
			vis[[2]int{u.ID, e.ID}] = true
		}
	}
	// Growth closure: (a vis b) ∧ (b 7→ c) ⇒ (a vis c).
	changed := true
	for changed {
		changed = false
		for pair := range vis {
			b := h.Event(pair[1])
			for _, c := range h.Proc(b.Proc)[b.Index+1:] {
				k := [2]int{pair[0], c.ID}
				if !vis[k] {
					vis[k] = true
					changed = true
				}
			}
		}
	}
	// The closure must not extend any query's visible set (V(q) is by
	// definition exactly the visible updates) nor flip an assumed-absent
	// insertion→deletion edge.
	for qi, q := range env.queries {
		for i, u := range env.updates {
			if vis[[2]int{u.ID, q.ID}] && assigned[qi]&(1<<uint(i)) == 0 {
				return false
			}
		}
	}
	for _, pr := range insDelPairs(h) {
		k := [2]int{pr.ins.ID, pr.del.ID}
		if vis[k] && !edges[k] {
			return false
		}
	}
	// Acyclicity of the closed relation plus program order.
	g := poEdges(h)
	for pair := range vis {
		g[pair[0]] = append(g[pair[0]], pair[1])
	}
	return acyclic(len(h.Events()), g)
}

// InsertWinsFromSUC materializes the paper's Proposition 3 proof: given
// a SUC witness for a set history, construct the Insert-wins relation
// (vis edges, plus same-element updates ordered by ≤, transitively
// pushed into queries) and verify it satisfies Definition 10. A nil
// error is a machine-checked instance of Proposition 3.
func InsertWinsFromSUC(h *history.History, w *Witness) error {
	if _, ok := h.ADT().(spec.SetSpec); !ok {
		return fmt.Errorf("check: Insert-wins applies to set histories")
	}
	if w == nil || w.Visibility == nil {
		return fmt.Errorf("check: incomplete SUC witness")
	}
	if len(w.UpdateOrder) != len(h.Updates()) {
		return fmt.Errorf("check: SUC witness orders %d of %d updates",
			len(w.UpdateOrder), len(h.Updates()))
	}
	pos := map[int]int{}
	for i, e := range w.UpdateOrder {
		pos[e.ID] = i
	}
	// Rule 2 of the proof: same-element updates ordered by ≤.
	edges := map[[2]int]bool{}
	sameElement := func(a, b *history.Event) bool {
		return elementOf(a) == elementOf(b)
	}
	for _, a := range h.Updates() {
		for _, b := range h.Updates() {
			if a.ID != b.ID && sameElement(a, b) && pos[a.ID] < pos[b.ID] {
				edges[[2]int{a.ID, b.ID}] = true
			}
		}
	}
	// Validate the Insert-wins read rule under V(q) (rules 1 and 3 of
	// the proof make exactly these updates visible).
	env := newVisEnv(h)
	for _, q := range env.queries {
		var mask uint64
		for _, id := range w.Visibility[q.ID] {
			mask |= env.bit[id]
		}
		if !iwOutputMatches(env, q, mask, edges) {
			return fmt.Errorf("check: query %d violates the Insert-wins rule under the constructed relation", q.ID)
		}
	}
	return nil
}

// elementOf returns the element an update operates on.
func elementOf(e *history.Event) string {
	switch op := e.U.(type) {
	case spec.Ins:
		return op.V
	case spec.Del:
		return op.V
	}
	return ""
}
