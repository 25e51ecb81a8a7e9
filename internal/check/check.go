// Package check implements decision procedures for the consistency
// criteria of the paper (Definitions 5–10) on finite ω-annotated
// histories: eventual consistency (EC), strong eventual consistency
// (SEC), pipelined consistency (PC), causal consistency (CC), update
// consistency (UC), strong update consistency (SUC), sequential
// consistency (SC, as a reference point) and strong eventual
// consistency for the Insert-wins set.
//
// Finite-history semantics. The paper's criteria quantify over infinite
// histories; the deciders interpret a query event marked ω as an
// infinite suffix of identical queries issued after the process's last
// update (the figures' R/∅^ω notation). Under that interpretation
// "all but finitely many queries" means "every ω query", and "eventual
// delivery" means "every ω query sees every update".
//
// # Finite encodings
//
// EC (Definition 5): some state satisfies every ω query. The state need
// not be reachable from s0: Figure 1(b) converges to {1,2}, which no
// update linearization produces.
//
// UC (Definition 8): the non-ω queries form a finite set, so all of
// them may be discarded; keeping some could only add constraints. What
// remains is a program-order linearization of the updates whose final
// state satisfies every ω query, since each ω query's infinite suffix
// lies after the last update.
//
// PC (Definition 7): for every process p, some linearization of (all
// updates ∪ p's events) belongs to L(O). p's finite queries are checked
// at their position; its ω query is consumed only once every update has
// been applied, since all but finitely many of its instances follow the
// last update. SC is the same with one linearization of all events.
//
// CC: PC where each per-process linearization also respects the
// recorded causal order. An event with dependency vector D is consumed
// only once, for every process k, at least D[k] of k's updates have
// been consumed: the delivery gate causal replicas apply at runtime.
// Without dependency vectors CC coincides with PC.
//
// SEC (Definition 6): the decider chooses, for every query q, the set
// V(q) of updates visible to it, subject to
//
//   - V(q) ⊇ the updates that program-order precede q (vis ⊇ 7→,
//     plus reflexivity and growth along q's own process);
//   - V(q) ⊆ V(q') whenever q 7→ q' (growth);
//   - V(q) = U_H for ω queries (eventual delivery: only finitely many
//     events may miss an update, and an ω query stands for infinitely
//     many);
//   - queries with equal V(q) are jointly explainable by one state
//     (strong convergence; the state is arbitrary in S, which is why
//     Figure 1(b) is SEC);
//   - the relation 7→ ∪ {(u,q) : u ∈ V(q)} is acyclic.
//
// These edges need no closure. Growth closure adds (u,e) only where
// u ∈ V(q) and q 7→ e: that pair is already the path u → q → e of the
// checked graph, and for a query e it lies in V(e) by growth. So the
// closed relation stays acyclic and leaves every V(q) unchanged.
//
// SUC (Definition 9): for each program-order linearization of U_H (the
// update part of the total order ≤), a SEC-style choice of V(q) in
// which replaying V(q) in ≤ order yields q's declared output, and an
// acyclic 7→ ∪ visibility ∪ update order, which is exactly the
// existence of a total ≤ extending all three.
//
// Insert-wins (Definition 10): SEC on the set, plus a choice of
// visibility edges between insertions and deletions of one element,
// under which every query reports exactly the elements with a visible
// insertion that no visible deletion of the element sees.
//
// # Two searches
//
// SC, PC, CC, UC and EC (for types without a StateExplainer) share one
// memoized search over event interleavings, interleave; CC adds its
// causal gate and UC and EC a final-state predicate. SEC, SUC and
// Insert-wins share one visibility-assignment search, visEnv.assign,
// with a per-query predicate and a check of the complete assignment.
// SUC runs it once per update order; that enumeration is the only other
// backtracking loop.
//
// The deciders are exact (sound and complete) for the encoded
// semantics. Searches carry a node budget; exceeding it yields
// Result.Undecided = true rather than a wrong answer. All positive
// answers come with machine-checkable witnesses that the tests
// re-validate independently.
package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"updatec/internal/history"
	"updatec/internal/spec"
)

// DefaultBudget bounds the number of search nodes a decider may expand
// before giving up. The paper-scale examples need a few hundred nodes;
// the randomized experiment histories stay well under a million.
const DefaultBudget = 4_000_000

// Options tunes a decider invocation.
type Options struct {
	// Budget overrides DefaultBudget when positive.
	Budget int
}

func (o Options) budget() int {
	if o.Budget > 0 {
		return o.Budget
	}
	return DefaultBudget
}

// Result is a decider verdict.
type Result struct {
	// Criterion names the criterion decided ("EC", "SEC", ...).
	Criterion string
	// Holds reports whether the history satisfies the criterion.
	Holds bool
	// Undecided is set when the search budget ran out before an answer
	// was found; Holds is then meaningless.
	Undecided bool
	// Reason is a human-readable explanation (for negative or undecided
	// verdicts).
	Reason string
	// Witness carries the certificate for positive verdicts.
	Witness *Witness
}

// Witness certifies a positive verdict. Which fields are set depends on
// the criterion.
type Witness struct {
	// State is the converged state (EC) explaining all ω queries.
	State spec.State
	// Linearization is a full linearization in L(O) (SC, UC — for UC it
	// covers updates and ω queries only).
	Linearization []*history.Event
	// PerProc maps each process to a linearization of (all updates ∪
	// that process's queries) in L(O) (PC).
	PerProc map[int][]*history.Event
	// UpdateOrder is the total order on updates (SUC), ascending.
	UpdateOrder []*history.Event
	// Visibility maps query event IDs to the sorted update event IDs
	// they see (SEC, SUC, Insert-wins).
	Visibility map[int][]int
	// UpdateVis lists extra update→update visibility edges as ID pairs
	// (Insert-wins).
	UpdateVis [][2]int
}

// holds builds a positive result.
func holds(criterion string, w *Witness) Result {
	return Result{Criterion: criterion, Holds: true, Witness: w}
}

// fails builds a negative result.
func fails(criterion, reason string, args ...any) Result {
	return Result{Criterion: criterion, Reason: fmt.Sprintf(reason, args...)}
}

// undecided builds a budget-exhausted result.
func undecided(criterion string) Result {
	return Result{Criterion: criterion, Undecided: true,
		Reason: "search budget exhausted"}
}

// budgetErr signals budget exhaustion through the search recursion.
type budgetErr struct{}

func (budgetErr) Error() string { return "check: search budget exhausted" }

// counter decrements a shared budget and panics with budgetErr when it
// runs out; deciders recover it into an Undecided result.
type counter struct{ left int }

func (c *counter) spend() {
	c.left--
	if c.left < 0 {
		panic(budgetErr{})
	}
}

// run executes a search function, converting budget exhaustion into
// (false, true).
func run(fn func() bool) (ok, outOfBudget bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isBudget := r.(budgetErr); isBudget {
				outOfBudget = true
				return
			}
			panic(r)
		}
	}()
	return fn(), false
}

// Classify runs the five paper criteria plus causal consistency on a
// history.
func Classify(h *history.History) history.Classification { return ClassifyOpt(h, Options{}) }

// ClassifyOpt is Classify with shared search options. A criterion whose
// decider is undecided reads false and is named in Undecided.
func ClassifyOpt(h *history.History, opt Options) history.Classification {
	var c history.Classification
	var undecided []string
	for _, d := range []struct {
		r     Result
		holds *bool
	}{
		{ECOpt(h, opt), &c.EC},
		{SECOpt(h, opt), &c.SEC},
		{UCOpt(h, opt), &c.UC},
		{SUCOpt(h, opt), &c.SUC},
		{PCOpt(h, opt), &c.PC},
		{CCOpt(h, opt), &c.CC},
	} {
		*d.holds = d.r.Holds
		if d.r.Undecided {
			undecided = append(undecided, d.r.Criterion)
		}
	}
	c.Undecided = strings.Join(undecided, " ")
	return c
}

// interleave is the memoized interleaving search behind SC, PC, CC, UC
// and EC. It consumes the events of chains in every order that keeps
// each chain's own order: an update is applied, a query's output is
// checked against the state at its position, and an ω query is
// consumed only once every update has been applied. With causal set,
// an event is consumed only once the consumed-update counts cover its
// Deps (CC's gate). With final non-nil, a complete interleaving counts
// only if final accepts its last state (UC's and EC's predicate).
// Nodes are memoized on (chain positions, state); the positions fix the
// consumed-update counts, so the gate keeps the memo sound. It returns
// the consumed order and the final state of the first accepted
// interleaving.
func interleave(h *history.History, chains [][]*history.Event, opt Options,
	causal bool, final func(spec.State) bool) (order []*history.Event, state spec.State, ok, outOfBudget bool) {
	adt := h.ADT()
	pos := make([]int, len(chains))
	cnt := make([]uint64, h.NumProcs()) // consumed updates per process
	events, updatesLeft := 0, 0
	for _, ch := range chains {
		events += len(ch)
		for _, e := range ch {
			if e.IsUpdate() {
				updatesLeft++
			}
		}
	}
	memo := map[string]bool{}
	budget := &counter{left: opt.budget()}
	var key []byte
	var dfs func(s spec.State) bool
	dfs = func(s spec.State) bool {
		budget.spend()
		key = key[:0]
		for _, p := range pos {
			key = strconv.AppendInt(key, int64(p), 10)
			key = append(key, ',')
		}
		key = append(append(key, '|'), adt.KeyState(s)...)
		k := string(key)
		if memo[k] {
			return false
		}
		if len(order) == events {
			if final == nil || final(s) {
				state = s
				return true
			}
			memo[k] = true
			return false
		}
		for i, ch := range chains {
			if pos[i] == len(ch) {
				continue
			}
			e := ch[pos[i]]
			if causal && !covers(cnt, e.Deps) {
				continue
			}
			next := s
			if e.IsUpdate() {
				next = adt.Apply(adt.Clone(s), e.U)
				cnt[e.Proc]++
				updatesLeft--
			} else if (e.Omega && updatesLeft > 0) || !adt.EqualOutput(adt.Query(s, e.QIn), e.QOut) {
				continue
			}
			pos[i]++
			order = append(order, e)
			if dfs(next) {
				return true
			}
			order = order[:len(order)-1]
			pos[i]--
			if e.IsUpdate() {
				cnt[e.Proc]--
				updatesLeft++
			}
		}
		memo[k] = true
		return false
	}
	ok, outOfBudget = run(func() bool { return dfs(adt.Initial()) })
	return order, state, ok, outOfBudget
}

// covers reports whether the consumed-update counts cnt dominate the
// dependency vector deps (nil deps impose nothing; History.Validate
// guarantees one entry per process otherwise).
func covers(cnt, deps []uint64) bool {
	for k, d := range deps {
		if cnt[k] < d {
			return false
		}
	}
	return true
}

// omegaObservations collects the observations of all ω queries.
func omegaObservations(h *history.History) []spec.Observation {
	var obs []spec.Observation
	for _, q := range h.OmegaQueries() {
		obs = append(obs, q.Observation())
	}
	return obs
}

// stateMatchesAll reports whether state s satisfies every observation.
func stateMatchesAll(adt spec.UQADT, s spec.State, obs []spec.Observation) bool {
	for _, o := range obs {
		if !adt.EqualOutput(adt.Query(s, o.In), o.Out) {
			return false
		}
	}
	return true
}

// sortedIDs renders a set of update events as sorted IDs.
func sortedIDs(events []*history.Event) []int {
	ids := make([]int, len(events))
	for i, e := range events {
		ids[i] = e.ID
	}
	sort.Ints(ids)
	return ids
}

// idsKey is a canonical string for a set of event IDs.
func idsKey(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// acyclic checks that the directed graph over event IDs (adjacency
// lists) has no cycle.
func acyclic(n int, edges map[int][]int) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, n)
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, w := range edges[v] {
			switch color[w] {
			case grey:
				return false
			case white:
				if !visit(w) {
					return false
				}
			}
		}
		color[v] = black
		return true
	}
	for v := 0; v < n; v++ {
		if color[v] == white && !visit(v) {
			return false
		}
	}
	return true
}

// poEdges returns the program-order successor edges of h (each event to
// its immediate process successor; transitivity is implied for
// reachability purposes).
func poEdges(h *history.History) map[int][]int {
	edges := map[int][]int{}
	for p := 0; p < h.NumProcs(); p++ {
		seq := h.Proc(p)
		for i := 0; i+1 < len(seq); i++ {
			edges[seq[i].ID] = append(edges[seq[i].ID], seq[i+1].ID)
		}
	}
	return edges
}
