package check

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/history"
	"updatec/internal/spec"
)

func TestECTrivialWithoutOmega(t *testing.T) {
	// A finite history with no converged queries is trivially EC
	// (Definition 5's "finite number of queries" absorbs everything).
	h := history.MustParse("set\np0: I(1) R/{2}\np1: D(1) R/{1}\n")
	if !EC(h).Holds {
		t.Fatalf("EC must hold vacuously without ω queries")
	}
	if !UC(h).Holds {
		t.Fatalf("UC must hold vacuously without ω queries")
	}
}

func TestECDisagreeingOmega(t *testing.T) {
	h := history.MustParse("set\np0: I(1) R/{1}ω\np1: R/{2}ω\n")
	if EC(h).Holds {
		t.Fatalf("diverged ω reads cannot be EC")
	}
}

func TestUCRespectsProgramOrderOfUpdates(t *testing.T) {
	// p0 inserts then deletes 1; p1 expects {1} forever. The only
	// linearizations end with D(1) or I(2)... here: updates
	// I(1) 7→ D(1), so the final state never contains 1.
	h := history.MustParse("set\np0: I(1) D(1)\np1: R/{1}ω\n")
	if UC(h).Holds {
		t.Fatalf("UC must respect program order I(1) 7→ D(1)")
	}
	// Reversed program order converges to {1}.
	h = history.MustParse("set\np0: D(1) I(1)\np1: R/{1}ω\n")
	if !UC(h).Holds {
		t.Fatalf("D(1)·I(1) should converge to {1}")
	}
}

func TestUCWitnessOrderIsCrossProcess(t *testing.T) {
	// Cross-process interleaving needed: p0: I(1), p1: D(1), expect ∅ —
	// D(1) must come last.
	h := history.MustParse("set\np0: I(1) R/∅ω\np1: D(1) R/∅ω\n")
	r := UC(h)
	if !r.Holds {
		t.Fatalf("UC should hold: %s", r.Reason)
	}
	if err := ValidateUCWitness(h, r.Witness); err != nil {
		t.Fatal(err)
	}
	lin := r.Witness.Linearization
	if lin[0].String() != "I(1)" || lin[1].String() != "D(1)" {
		t.Fatalf("witness order wrong: %v %v", lin[0], lin[1])
	}
}

func TestPCLocalOnly(t *testing.T) {
	// PC allows different processes to order concurrent updates
	// differently (the Fig. 2 phenomenon) — but each process view must
	// be internally explainable.
	h := history.MustParse("set\np0: I(1) R/{1}\np1: R/{1}\n")
	// p1 reads {1} with no own updates: the linearization I(1)·R/{1}
	// works.
	if !PC(h).Holds {
		t.Fatalf("PC should hold")
	}
	h = history.MustParse("set\np0: I(1) R/∅\n")
	if PC(h).Holds {
		t.Fatalf("R/∅ after own I(1) violates PC")
	}
}

func TestSCStrongerThanPC(t *testing.T) {
	// Fig2 is PC but has no single linearization: not SC.
	h := history.Fig2()
	if SC(h).Holds {
		t.Fatalf("Fig2 must not be SC")
	}
	// A trivially sequential history is SC.
	h2 := history.MustParse("set\np0: I(1) R/{1}\np1: R/{1}\n")
	r := SC(h2)
	if !r.Holds {
		t.Fatalf("SC should hold: %s", r.Reason)
	}
	if err := ValidateSCWitness(h2, r.Witness); err != nil {
		t.Fatal(err)
	}
}

func TestSECNeedsExplainableGroups(t *testing.T) {
	// Two queries forced to share the full visible set but disagreeing.
	h := history.MustParse("set\np0: I(1) R/{1}ω\np1: I(2) R/{2}ω\n")
	if SEC(h).Holds {
		t.Fatalf("ω queries with same V must agree")
	}
}

func TestSECHasNoSemanticLink(t *testing.T) {
	// p0: R/{2} then I(1); p1: R/{1} then I(2). SEC does NOT link a
	// query's visible set to its output (the paper's very criticism of
	// eventual consistency): each query can take an empty visible set
	// and be "explained" by an arbitrary state, so this history is SEC.
	h := history.MustParse("set\np0: R/{2} I(1)\np1: R/{1} I(2)\n")
	if !SEC(h).Holds {
		t.Fatalf("SEC should hold — visibility carries no semantics")
	}
	// SUC *does* link them: R/{2} forces V={I(2)}, R/{1} forces
	// V={I(1)}, and with q1 7→ I(1), q2 7→ I(2) the induced relation
	// I(2)→q1→I(1)→q2→I(2) is a cycle: no total order ≤ exists.
	if SUC(h).Holds {
		t.Fatalf("SUC must reject the cyclic visibility requirement")
	}
	// Same shape with ∅ outputs needs no visibility at all.
	h2 := history.MustParse("set\np0: R/∅ I(1)\np1: R/∅ I(2)\n")
	if !SUC(h2).Holds {
		t.Fatalf("empty-visibility variant should even be SUC")
	}
}

func TestCounterEagerIsUC(t *testing.T) {
	// Counters are pure CRDTs: delivery order does not matter, so
	// any eager history with converged sums is UC.
	h := history.MustParse("counter\np0: Inc(2) R/2 R/5ω\np1: Inc(3) R/3 R/5ω\n")
	if !UC(h).Holds {
		t.Fatalf("commutative counter history must be UC")
	}
	if !EC(h).Holds {
		t.Fatalf("counter history must be EC")
	}
}

func TestRegisterHistories(t *testing.T) {
	// Two concurrent writes; both processes converge on "b".
	h := history.MustParse("register\np0: W(a) R/aω\np1: W(b) R/aω\n")
	if !UC(h).Holds {
		t.Fatalf("register converging to a is UC (linearize b then a)")
	}
	h2 := history.MustParse("register\np0: W(a) R/aω\np1: W(b) R/bω\n")
	if UC(h2).Holds || EC(h2).Holds {
		t.Fatalf("diverged register reads cannot be UC/EC")
	}
}

func TestQueueHistory(t *testing.T) {
	h := history.MustParse("queue\np0: Enq(a) Front/aω\np1: Enq(b) Front/aω\n")
	if !UC(h).Holds {
		t.Fatalf("queue converging on front=a is UC")
	}
	h2 := history.MustParse("queue\np0: Enq(a) Front/aω\np1: Enq(b) Front/bω\n")
	if EC(h2).Holds {
		t.Fatalf("diverged fronts cannot be EC")
	}
}

func TestMemoryHistory(t *testing.T) {
	// Per-register convergence: x from p0, y from p1.
	h := history.MustParse("memory\np0: W(x,1) R(x)/1 R(y)/2ω\np1: W(y,2) R(y)/2 R(x)/1ω\n")
	if !UC(h).Holds {
		t.Fatalf("memory history should be UC")
	}
	if !EC(h).Holds {
		t.Fatalf("memory history should be EC")
	}
}

func TestLogHistoryOrderMatters(t *testing.T) {
	h := history.MustParse("log\np0: App(a) RL/[a;b]ω\np1: App(b) RL/[a;b]ω\n")
	if !UC(h).Holds {
		t.Fatalf("log converging to [a;b] is UC")
	}
	h2 := history.MustParse("log\np0: App(a) RL/[a;b]ω\np1: App(b) RL/[b;a]ω\n")
	if UC(h2).Holds || EC(h2).Holds {
		t.Fatalf("diverged log orders cannot be UC/EC")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	h := history.Fig2()
	r := UCOpt(h, Options{Budget: 1})
	if !r.Undecided {
		t.Fatalf("budget 1 must exhaust, got %+v", r)
	}
	// Fig2's SEC fails in the ω precheck before any search; use Fig1a,
	// whose refutation needs the visibility search.
	r = SECOpt(history.Fig1a(), Options{Budget: 1})
	if !r.Undecided {
		t.Fatalf("budget 1 must exhaust SEC, got %+v", r)
	}
	r = SUCOpt(h, Options{Budget: 1})
	if !r.Undecided {
		t.Fatalf("budget 1 must exhaust SUC, got %+v", r)
	}
	r = PCOpt(h, Options{Budget: 1})
	if !r.Undecided {
		t.Fatalf("budget 1 must exhaust PC, got %+v", r)
	}
}

// TestQuickHierarchy is Proposition 2 on random histories: SUC ⇒ SEC,
// SUC ⇒ UC, UC ⇒ EC. It mixes arbitrary, eager and linearized output
// modes so both sides of each implication are exercised.
func TestQuickHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := history.RandomMode(rng.Intn(3))
		h := history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 1,
			Mode: mode, Omega: true,
		})
		c := Classify(h)
		if c.SUC && !c.SEC {
			t.Logf("SUC without SEC:\n%s", h.String())
			return false
		}
		if c.SUC && !c.UC {
			t.Logf("SUC without UC:\n%s", h.String())
			return false
		}
		if c.UC && !c.EC {
			t.Logf("UC without EC:\n%s", h.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLinearizedModeIsSUC: histories produced by simulating the
// paper's construction (replay along a shared total order, grow-only
// delivery) must always be strong update consistent.
func TestQuickLinearizedModeIsSUC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 2,
			Mode: history.ModeLinearized, Omega: true,
		})
		r := SUC(h)
		if !r.Holds {
			t.Logf("not SUC (%s):\n%s", r.Reason, h.String())
			return false
		}
		return ValidateSUCWitness(h, r.Witness) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWitnessesRevalidate: every positive verdict on random
// histories of every type must carry a witness that the independent
// validators accept.
func TestQuickWitnessesRevalidate(t *testing.T) {
	type generator struct {
		name string
		gen  func(rng *rand.Rand) *history.History
	}
	gens := []generator{{"set", func(rng *rand.Rand) *history.History {
		return history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 1,
			Mode: history.RandomMode(rng.Intn(3)), Omega: rng.Intn(2) == 0,
		})
	}}}
	for _, tc := range genericCases() {
		tc := tc
		gens = append(gens, generator{tc.name, func(rng *rand.Rand) *history.History {
			return history.Random(rng, tc.adt, history.RandomOptions{
				Procs: 2, MaxUpdates: 2, MaxQueries: 1,
				Mode: history.RandomMode(rng.Intn(3)), Omega: rng.Intn(2) == 0,
				GenUpdate: tc.gen, QueryIn: tc.queryIn,
			})
		}})
	}
	deciders := []struct {
		decide   func(*history.History) Result
		validate func(*history.History, *Witness) error
	}{
		{EC, ValidateECWitness}, {SEC, ValidateSECWitness}, {UC, ValidateUCWitness},
		{SUC, ValidateSUCWitness}, {PC, ValidatePCWitness}, {CC, ValidateCCWitness},
		{SC, ValidateSCWitness}, {InsertWins, validateIWWitness},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			f := func(seed int64) bool {
				h := g.gen(rand.New(rand.NewSource(seed)))
				for _, d := range deciders {
					if r := d.decide(h); r.Holds {
						if err := d.validate(h, r.Witness); err != nil {
							t.Logf("%s witness: %v\n%s", r.Criterion, err, h.String())
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// validateIWWitness re-checks an Insert-wins witness without the
// decider's rule code: the relation is a SEC witness, and every query's
// output is what a set holding exactly the winning insertions answers —
// the visible insertions no visible deletion of the same element sees.
func validateIWWitness(h *history.History, w *Witness) error {
	if err := ValidateSECWitness(h, w); err != nil {
		return err
	}
	seenBy := map[[2]int]bool{}
	for _, e := range w.UpdateVis {
		seenBy[e] = true
	}
	adt := h.ADT()
	for _, q := range h.Queries() {
		s := adt.Initial()
		for _, i := range w.Visibility[q.ID] {
			ins, ok := h.Event(i).U.(spec.Ins)
			if !ok {
				continue
			}
			wins := true
			for _, d := range w.Visibility[q.ID] {
				if del, ok := h.Event(d).U.(spec.Del); ok && del.V == ins.V && seenBy[[2]int{i, d}] {
					wins = false
				}
			}
			if wins {
				s = adt.Apply(s, ins)
			}
		}
		if !adt.EqualOutput(adt.Query(s, q.QIn), q.QOut) {
			return fmt.Errorf("query %d: Insert-wins rule gives %v, declared %v", q.ID, adt.Query(s, q.QIn), q.QOut)
		}
	}
	return nil
}

func TestIWWitnessValidatorRejectsFlippedEdges(t *testing.T) {
	// Figure 1(b)'s Insert-wins witness lets both insertions win; making
	// every deletion see the insertion of its element must break it.
	h := history.Fig1b()
	r := InsertWins(h)
	if !r.Holds {
		t.Fatalf("Fig1b must be Insert-wins SEC: %s", r.Reason)
	}
	if err := validateIWWitness(h, r.Witness); err != nil {
		t.Fatal(err)
	}
	flipped := *r.Witness
	flipped.UpdateVis = nil
	for _, pr := range insDelPairs(h) {
		flipped.UpdateVis = append(flipped.UpdateVis, [2]int{pr.ins.ID, pr.del.ID})
	}
	if validateIWWitness(h, &flipped) == nil {
		t.Fatal("a witness whose deletions see every insertion cannot explain {1, 2}")
	}
}

// TestQuickProposition3: every SUC set history is SEC for the
// Insert-wins set; validated constructively from the SUC witness as in
// the paper's proof.
func TestQuickProposition3(t *testing.T) {
	tested := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 1,
			Mode: history.ModeLinearized, Omega: true,
		})
		r := SUC(h)
		if !r.Holds {
			return true // only SUC histories are in scope
		}
		tested++
		if err := InsertWinsFromSUC(h, r.Witness); err != nil {
			t.Logf("Prop 3 violated: %v\n%s", err, h.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if tested == 0 {
		t.Fatalf("no SUC histories generated; test vacuous")
	}
}

// TestQuickSCImpliesPCAndSUC: sequential consistency sits above the
// whole hierarchy.
func TestQuickSCImpliesPCAndSUC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := history.RandomMode(rng.Intn(3))
		h := history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 1,
			Mode: mode, Omega: true,
		})
		if !SC(h).Holds {
			return true
		}
		if !PC(h).Holds {
			t.Logf("SC without PC:\n%s", h.String())
			return false
		}
		if !SUC(h).Holds {
			t.Logf("SC without SUC:\n%s", h.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertWinsRejectsNonSetTypes(t *testing.T) {
	h := history.MustParse("counter\np0: Inc(1) R/1ω\n")
	r := InsertWins(h)
	if r.Holds || r.Undecided {
		t.Fatalf("Insert-wins on a counter must fail cleanly: %+v", r)
	}
}

// maskPopcount is the number of updates a visibility mask covers.
func maskPopcount(m uint64) int { return bits.OnesCount64(m) }

func TestVisEnvBitsExhaustive(t *testing.T) {
	h := history.Fig1b()
	env := newVisEnv(h)
	if maskPopcount(env.fullMask()) != len(h.Updates()) {
		t.Fatalf("full mask must cover all updates")
	}
}

func TestClassifyOptMatchesClassify(t *testing.T) {
	for _, fig := range history.Figures() {
		a := Classify(fig.H)
		b := ClassifyOpt(fig.H, Options{Budget: DefaultBudget})
		if a != b {
			t.Fatalf("%s: Classify variants disagree", fig.Label)
		}
	}
}
