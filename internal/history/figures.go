package history

import "updatec/internal/spec"

// This file transcribes the example histories of the paper's Figures 1
// and 2. They are the ground truth for the consistency deciders
// (experiments E1/E2, indexed in the cmd/ucbench doc): the paper states
// for each which criteria hold.

// Fig1a is Figure 1(a): EC but not SEC nor UC.
//
//	p0: I(1) R/{2} R/{1} R/∅^ω
//	p1: I(2) R/{1} R/{2} R/∅^ω
func Fig1a() *History {
	b := New(spec.Set())
	b.Process().
		Update(spec.Ins{V: "1"}).
		Query(spec.Read{}, spec.Elems{"2"}).
		Query(spec.Read{}, spec.Elems{"1"}).
		QueryOmega(spec.Read{}, spec.Elems{})
	b.Process().
		Update(spec.Ins{V: "2"}).
		Query(spec.Read{}, spec.Elems{"1"}).
		Query(spec.Read{}, spec.Elems{"2"}).
		QueryOmega(spec.Read{}, spec.Elems{})
	return b.MustBuild()
}

// Fig1b is Figure 1(b): SEC but not UC.
//
//	p0: I(1) D(2) R/{1,2}^ω
//	p1: I(2) D(1) R/{1,2}^ω
func Fig1b() *History {
	b := New(spec.Set())
	b.Process().
		Update(spec.Ins{V: "1"}).
		Update(spec.Del{V: "2"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	b.Process().
		Update(spec.Ins{V: "2"}).
		Update(spec.Del{V: "1"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	return b.MustBuild()
}

// Fig1c is Figure 1(c): SEC and UC but not SUC.
//
//	p0: I(1) R/∅ R/{1,2}^ω
//	p1: I(2) R/{1,2}^ω
func Fig1c() *History {
	b := New(spec.Set())
	b.Process().
		Update(spec.Ins{V: "1"}).
		Query(spec.Read{}, spec.Elems{}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	b.Process().
		Update(spec.Ins{V: "2"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	return b.MustBuild()
}

// Fig1d is Figure 1(d): SUC but not PC.
//
//	p0: I(1) R/{1} I(2) R/{1,2}^ω
//	p1: R/{2} R/{1,2}^ω
func Fig1d() *History {
	b := New(spec.Set())
	b.Process().
		Update(spec.Ins{V: "1"}).
		Query(spec.Read{}, spec.Elems{"1"}).
		Update(spec.Ins{V: "2"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	b.Process().
		Query(spec.Read{}, spec.Elems{"2"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	return b.MustBuild()
}

// Fig2 is Figure 2: PC but not EC. After stabilization p1 sees element
// 3 whereas p0 does not — both views are pipelined consistent but the
// replicas never converge.
//
//	p0: I(1) I(3) R/{1,3} R/{1,2,3} R/{1,2}^ω
//	p1: I(2) D(3) R/{2}   R/{1,2}   R/{1,2,3}^ω
func Fig2() *History {
	b := New(spec.Set())
	b.Process().
		Update(spec.Ins{V: "1"}).
		Update(spec.Ins{V: "3"}).
		Query(spec.Read{}, spec.Elems{"1", "3"}).
		Query(spec.Read{}, spec.Elems{"1", "2", "3"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2"})
	b.Process().
		Update(spec.Ins{V: "2"}).
		Update(spec.Del{V: "3"}).
		Query(spec.Read{}, spec.Elems{"2"}).
		Query(spec.Read{}, spec.Elems{"1", "2"}).
		QueryOmega(spec.Read{}, spec.Elems{"1", "2", "3"})
	return b.MustBuild()
}

// Figures returns all paper example histories keyed by their figure
// label, with the paper's stated classification for each criterion in
// the order [EC, SEC, UC, SUC, PC].
func Figures() []Figure {
	return []Figure{
		// CC follows PC on these histories: the figures record no
		// dependency vectors, so causal order degenerates to program
		// order and the CC decider coincides with PC.
		{Label: "Fig1a", H: Fig1a(), Expect: Classification{EC: true, SEC: false, UC: false, SUC: false, PC: false, CC: false}},
		{Label: "Fig1b", H: Fig1b(), Expect: Classification{EC: true, SEC: true, UC: false, SUC: false, PC: false, CC: false}},
		{Label: "Fig1c", H: Fig1c(), Expect: Classification{EC: true, SEC: true, UC: true, SUC: false, PC: false, CC: false}},
		{Label: "Fig1d", H: Fig1d(), Expect: Classification{EC: true, SEC: true, UC: true, SUC: true, PC: false, CC: false}},
		{Label: "Fig2", H: Fig2(), Expect: Classification{EC: false, SEC: false, UC: false, SUC: false, PC: true, CC: true}},
	}
}

// Figure pairs a paper example history with its published
// classification.
type Figure struct {
	Label  string
	H      *History
	Expect Classification
}

// Classification records which consistency criteria hold for a history.
type Classification struct {
	EC  bool // eventual consistency (Def. 5)
	SEC bool // strong eventual consistency (Def. 6)
	UC  bool // update consistency (Def. 8)
	SUC bool // strong update consistency (Def. 9)
	PC  bool // pipelined consistency (Def. 7)
	CC  bool // causal consistency (PC + recorded causal order; see check.CC)
	// Undecided names, space-separated, the criteria whose decider gave
	// no answer (budget exhausted, or no StateExplainer for SEC); each
	// reads false above.
	Undecided string
}
