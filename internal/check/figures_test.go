package check

import (
	"testing"

	"updatec/internal/history"
	"updatec/internal/spec"
)

// TestFigure1And2Classification reproduces the paper's headline
// artifact (experiment E1/E2): each example history of Figures 1 and 2
// must be classified under EC, SEC, UC, SUC and PC exactly as the
// paper states.
func TestFigure1And2Classification(t *testing.T) {
	for _, fig := range history.Figures() {
		fig := fig
		t.Run(fig.Label, func(t *testing.T) {
			got := Classify(fig.H)
			if got != fig.Expect {
				t.Fatalf("%s:\n%sclassified %+v, paper says %+v",
					fig.Label, fig.H.String(), got, fig.Expect)
			}
		})
	}
}

// TestFigureWitnessesRevalidate checks every positive verdict's
// certificate with the independent validators.
func TestFigureWitnessesRevalidate(t *testing.T) {
	for _, fig := range history.Figures() {
		fig := fig
		t.Run(fig.Label, func(t *testing.T) {
			if r := EC(fig.H); r.Holds {
				if err := ValidateECWitness(fig.H, r.Witness); err != nil {
					t.Errorf("EC witness: %v", err)
				}
			}
			if r := SEC(fig.H); r.Holds {
				if err := ValidateSECWitness(fig.H, r.Witness); err != nil {
					t.Errorf("SEC witness: %v", err)
				}
			}
			if r := UC(fig.H); r.Holds {
				if err := ValidateUCWitness(fig.H, r.Witness); err != nil {
					t.Errorf("UC witness: %v", err)
				}
			}
			if r := SUC(fig.H); r.Holds {
				if err := ValidateSUCWitness(fig.H, r.Witness); err != nil {
					t.Errorf("SUC witness: %v", err)
				}
			}
			if r := PC(fig.H); r.Holds {
				if err := ValidatePCWitness(fig.H, r.Witness); err != nil {
					t.Errorf("PC witness: %v", err)
				}
			}
		})
	}
}

// TestFig2WitnessMatchesPaperWords: the PC witness for Figure 2 must be
// a valid linearization per process; the paper exhibits w1 and w2. Our
// searcher may find different but equally valid words; what must match
// is validity and the per-process content.
func TestFig2WitnessMatchesPaperWords(t *testing.T) {
	h := history.Fig2()
	r := PC(h)
	if !r.Holds {
		t.Fatalf("Fig2 must be PC: %s", r.Reason)
	}
	if err := ValidatePCWitness(h, r.Witness); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < h.NumProcs(); p++ {
		lin := r.Witness.PerProc[p]
		// |U_H| = 4 updates + 3 queries of p (2 finite + 1 ω) = 7.
		if len(lin) != 7 {
			t.Fatalf("process %d witness has %d events, want 7", p, len(lin))
		}
	}
}

// TestFig1bSECConvergesToUnreachableState: the paper's point about
// Figure 1(b) is that SEC lets replicas converge on {1,2}, a state no
// linearization of the four updates can reach. The EC witness state
// must be exactly {1,2} while UC fails.
func TestFig1bSECConvergesToUnreachableState(t *testing.T) {
	h := history.Fig1b()
	r := EC(h)
	if !r.Holds {
		t.Fatalf("Fig1b must be EC")
	}
	if key := h.ADT().KeyState(r.Witness.State); key != "{1, 2}" {
		t.Fatalf("EC witness state = %s, want {1, 2}", key)
	}
	if UC(h).Holds {
		t.Fatalf("Fig1b must not be UC: a deletion is always last")
	}
}

// TestFig1dSUCVisibility: in Figure 1(d) nothing prevents the second
// process from seeing I(2) before I(1) — the SUC witness must give its
// R/{2} query a visible set of exactly {I(2)}.
func TestFig1dSUCVisibility(t *testing.T) {
	h := history.Fig1d()
	r := SUC(h)
	if !r.Holds {
		t.Fatalf("Fig1d must be SUC: %s", r.Reason)
	}
	// Find p1's first query (R/{2}).
	q := h.Proc(1)[0]
	vis := r.Witness.Visibility[q.ID]
	if len(vis) != 1 {
		t.Fatalf("R/{2} should see exactly one update, sees %v", vis)
	}
	if u := h.Event(vis[0]); u.String() != "I(2)" {
		t.Fatalf("R/{2} should see I(2), sees %s", u)
	}
}

// TestFig1bInsertWins: the OR-set (Insert-wins) admits Figure 1(b) —
// concurrent I(1)/D(1) and I(2)/D(2) resolve in favor of the
// insertions, converging to {1,2} — even though the history is not UC.
// This is the expressiveness gap of §VI.
func TestFig1bInsertWins(t *testing.T) {
	h := history.Fig1b()
	r := InsertWins(h)
	if !r.Holds {
		t.Fatalf("Fig1b must be Insert-wins SEC: %s", r.Reason)
	}
	if UC(h).Holds {
		t.Fatalf("Fig1b must not be UC")
	}
}

// TestInsertWinsMembershipQueries: Figure 1(b) observed through C(v)
// instead of R is judged by the same Insert-wins rule, element by
// element — both insertions winning is admissible, an element present
// at one replica and absent at the other after convergence is not, and
// neither is a present element nobody inserted. The SUC decider agrees
// with itself across the two query forms.
func TestInsertWinsMembershipQueries(t *testing.T) {
	h := history.MustParse(`
		set
		p0: I(1) D(2) C(1)/⊤ C(2)/⊤ω
		p1: I(2) D(1) C(2)/⊤ C(1)/⊤ω
	`)
	if r := InsertWins(h); !r.Holds {
		t.Fatalf("Fig1b through membership queries must be Insert-wins SEC: %s", r.Reason)
	}
	if UC(h).Holds {
		t.Fatal("Fig1b through membership queries must not be UC")
	}
	for name, text := range map[string]string{
		"diverged": "set\np0: I(1) D(2) C(1)/⊤ω\np1: I(2) D(1) C(1)/⊥ω\n",
		"phantom":  "set\np0: I(1) C(3)/⊤ω\np1: D(1) C(3)/⊤ω\n",
	} {
		if InsertWins(history.MustParse(text)).Holds {
			t.Fatalf("%s history must not be Insert-wins SEC", name)
		}
	}
	suc := history.MustParse(`
		set
		p0: I(1) C(1)/⊤ C(2)/⊥ R/{1}ω
		p1: I(2) D(2) C(2)/⊥ C(1)/⊤ω
	`)
	if r := SUC(suc); !r.Holds {
		t.Fatalf("mixed R and C(v) observations of one linearization must be SUC: %s", r.Reason)
	} else if err := InsertWinsFromSUC(suc, r.Witness); err != nil {
		t.Fatalf("Proposition 3 on a history with membership queries: %v", err)
	}
}

// TestFig1aNotInsertWins: Figure 1(a) is not even SEC, so it cannot be
// Insert-wins SEC either.
func TestFig1aNotInsertWins(t *testing.T) {
	if InsertWins(history.Fig1a()).Holds {
		t.Fatalf("Fig1a must not be Insert-wins SEC")
	}
}

// TestDeletionWinsHistoryNotInsertWins: flip Figure 1(b)'s converged
// state to ∅ (deletions win). Insert-wins forbids it when the
// insertions cannot be made visible to the deletions: here each I is
// concurrent with the other process's D, so a relation making both
// deletions win must order I(1) before D(1) and I(2) before D(2) in
// visibility — possible! I(1) vis D(1) requires ... checked by the
// decider; the paper's OR-set semantics make insertions win only for
// *concurrent* pairs, visible pairs behave sequentially.
func TestDeletionWinsHistoryIsInsertWinsViaVisibility(t *testing.T) {
	// p0: I(1) D(2) R/∅^ω ; p1: I(2) D(1) R/∅^ω
	h := history.MustParse(`
		set
		p0: I(1) D(2) R/∅ω
		p1: I(2) D(1) R/∅ω
	`)
	r := InsertWins(h)
	// Making I(1) visible to D(1) and I(2) visible to D(2) yields ∅ at
	// both replicas; that relation is acyclic and growth-closed, so
	// this IS an admissible Insert-wins history.
	if !r.Holds {
		t.Fatalf("deletion-wins outcome should be admissible when deletions observe the insertions: %s", r.Reason)
	}
}

// TestMixedOutcomeNotInsertWins: converging to {1} requires D(2) to
// observe I(2) but D(1) to not observe I(1) — fine — but then the ω
// queries must agree with that choice. An output where an element is
// present with no insertion at all must be rejected.
func TestPhantomElementNotInsertWins(t *testing.T) {
	h := history.MustParse(`
		set
		p0: I(1) R/{3}ω
		p1: D(1) R/{3}ω
	`)
	if InsertWins(h).Holds {
		t.Fatalf("element 3 was never inserted; Insert-wins must reject")
	}
}

// TestClassifyParsedEqualsBuilt: classification is stable across the
// Parse/Format round trip.
func TestClassifyParsedEqualsBuilt(t *testing.T) {
	for _, fig := range history.Figures() {
		back := history.MustParse(history.Format(fig.H))
		if got := Classify(back); got != fig.Expect {
			t.Fatalf("%s after round trip: %+v want %+v", fig.Label, got, fig.Expect)
		}
	}
}

// TestClassifyNamesUndecided: a criterion whose decider gives no answer
// is named in Undecided rather than passing for a refutation. The
// countermap has no StateExplainer, so SEC is undecided on its
// histories while SUC holds; the paper's figures are all decided.
func TestClassifyNamesUndecided(t *testing.T) {
	adt := spec.CounterMap()
	b := history.New(adt)
	b.Process().Update(spec.AddKey{K: "a", N: 1}).QueryOmega(spec.ReadAllCtrs{}, adt.Query(map[string]int64{"a": 1, "b": 2}, spec.ReadAllCtrs{}))
	b.Process().Update(spec.AddKey{K: "b", N: 2}).QueryOmega(spec.ReadAllCtrs{}, adt.Query(map[string]int64{"a": 1, "b": 2}, spec.ReadAllCtrs{}))
	c := Classify(b.MustBuild())
	if c.Undecided != "SEC" || !c.SUC || !c.UC {
		t.Fatalf("countermap history classified %+v, want SUC and UC with SEC undecided", c)
	}
	for _, fig := range history.Figures() {
		if got := Classify(fig.H); got.Undecided != "" {
			t.Fatalf("%s: undecided %q", fig.Label, got.Undecided)
		}
	}
}
