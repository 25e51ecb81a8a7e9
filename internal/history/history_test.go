package history

import (
	"strings"
	"testing"

	"updatec/internal/spec"
)

func TestBuilderBasics(t *testing.T) {
	b := New(spec.Set())
	p0 := b.Process()
	p0.Update(spec.Ins{V: "1"}).Query(spec.Read{}, spec.Elems{"1"})
	p1 := b.Process()
	p1.QueryOmega(spec.Read{}, spec.Elems{"1"})
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumProcs() != 2 {
		t.Fatalf("procs: %d", h.NumProcs())
	}
	if len(h.Events()) != 3 {
		t.Fatalf("events: %d", len(h.Events()))
	}
	if len(h.Updates()) != 1 || len(h.Queries()) != 2 || len(h.OmegaQueries()) != 1 {
		t.Fatalf("projection sizes wrong")
	}
}

func TestBuilderRejectsEventsAfterOmega(t *testing.T) {
	b := New(spec.Set())
	p := b.Process()
	p.QueryOmega(spec.Read{}, spec.Elems{})
	p.Update(spec.Ins{V: "1"})
	if _, err := b.Build(); err == nil {
		t.Fatalf("expected error for event after ω")
	}
}

func TestProgramOrder(t *testing.T) {
	h := Fig1a()
	p0 := h.Proc(0)
	if !h.Before(p0[0], p0[1]) {
		t.Fatalf("same-process order missing")
	}
	if h.Before(p0[1], p0[0]) {
		t.Fatalf("program order not antisymmetric")
	}
	p1 := h.Proc(1)
	if h.Before(p0[0], p1[0]) || h.Before(p1[0], p0[0]) {
		t.Fatalf("cross-process events must be unordered")
	}
}

func TestPriorUpdates(t *testing.T) {
	h := Fig1d() // p0: I(1) R/{1} I(2) R/{1,2}ω
	p0 := h.Proc(0)
	if got := h.PriorUpdates(p0[1]); len(got) != 1 || got[0].U != (spec.Ins{V: "1"}) {
		t.Fatalf("prior updates of first query wrong: %v", got)
	}
	if got := h.PriorUpdates(p0[3]); len(got) != 2 {
		t.Fatalf("prior updates of ω query wrong: %v", got)
	}
	if got := h.PriorUpdates(h.Proc(1)[0]); len(got) != 0 {
		t.Fatalf("p1 first query should have no prior updates: %v", got)
	}
}

func TestUpdateChains(t *testing.T) {
	h := Fig1b()
	chains := h.UpdateChains()
	if len(chains) != 2 || len(chains[0]) != 2 || len(chains[1]) != 2 {
		t.Fatalf("update chains wrong: %v", chains)
	}
	if chains[0][0].U != (spec.Ins{V: "1"}) || chains[0][1].U != (spec.Del{V: "2"}) {
		t.Fatalf("p0 update chain wrong")
	}
}

func TestFiguresValidate(t *testing.T) {
	for _, fig := range Figures() {
		if err := fig.H.Validate(); err != nil {
			t.Fatalf("%s: %v", fig.Label, err)
		}
	}
}

func TestFigureShapes(t *testing.T) {
	// Spot-check the transcription against the paper.
	h := Fig2()
	if len(h.Updates()) != 4 {
		t.Fatalf("Fig2 must have 4 updates")
	}
	if got := h.Proc(0)[4].String(); got != "R/{1, 2}^ω" {
		t.Fatalf("Fig2 p0 ω query = %q", got)
	}
	if got := h.Proc(1)[4].String(); got != "R/{1, 2, 3}^ω" {
		t.Fatalf("Fig2 p1 ω query = %q", got)
	}
}

func TestParseFigure1a(t *testing.T) {
	h, err := Parse(`
		set
		p0: I(1) R/{2} R/{1} R/∅ω
		p1: I(2) R/{1} R/{2} R/∅ω
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := Fig1a()
	if h.String() != want.String() {
		t.Fatalf("parsed:\n%s\nwant:\n%s", h.String(), want.String())
	}
}

func TestParseFormatsRoundTrip(t *testing.T) {
	for _, fig := range Figures() {
		text := Format(fig.H)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: parse(format): %v\n%s", fig.Label, err, text)
		}
		if back.String() != fig.H.String() {
			t.Fatalf("%s: round trip mismatch:\n%s\nvs\n%s", fig.Label, back.String(), fig.H.String())
		}
	}
}

func TestParseOtherTypes(t *testing.T) {
	cases := []string{
		"counter\np0: Inc(1) Dec(2) R/-1ω\n",
		"register\np0: W(a) R/aω\np1: W(b) R/aω\n",
		"memory\np0: W(x,1) R(x)/1 R(y)/ω\n",
		"queue\np0: Enq(a) Deq Front/⊥ω\n",
		"stack\np0: Push(a) Pop Top/⊥ω\n",
		"log\np0: App(a) RL/[a]ω\np1: RL/[]\n",
	}
	for _, text := range cases {
		h, err := Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("validate %q: %v", text, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"unknowntype\np0: X\n",
		"set\np0 I(1)\n",         // missing colon
		"set\np0: I(1 \n",        // malformed op
		"set\np0: I(1)ω\n",       // omega on update
		"set\np0: R/∅ω I(1)\n",   // event after omega
		"set\np0: R/<1>\n",       // bad set literal
		"counter\np0: Inc(x)\n",  // bad int
		"memory\np0: W(x)\n",     // missing value
		"log\np0: RL/a;b\n",      // missing brackets
		"queue\np0: Deq(1)\n",    // Deq takes no argument
		"register\np0: Read/1\n", // unknown token
		"stack\np0: Top\n",       // query without output
		"gset\np0: R/{1} D(1)\n", // gset parses D? (set grammar) -- accepted by parser, caught at replay time
	}
	for i, text := range bad {
		if i == len(bad)-1 {
			// The last one is deliberately parseable; skip.
			continue
		}
		if _, err := Parse(text); err == nil {
			t.Fatalf("expected parse error for %q", text)
		}
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder(spec.Set(), 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec.Update(1, spec.Ins{V: "2"})
		rec.QueryOmega(1, spec.Read{}, spec.Elems{"1", "2"})
	}()
	rec.Update(0, spec.Ins{V: "1"})
	rec.Query(0, spec.Read{}, spec.Elems{"1"})
	<-done
	rec.QueryOmega(0, spec.Read{}, spec.Elems{"1", "2"})
	h, err := rec.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Updates()) != 2 || len(h.OmegaQueries()) != 2 {
		t.Fatalf("recorded history wrong:\n%s", h.String())
	}
}

func TestHistoryStringNotation(t *testing.T) {
	s := Fig1a().String()
	for _, frag := range []string{"I(1)", "I(2)", "R/∅^ω", "R/{2}"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := Fig1a()
	// Corrupt an index.
	h.Proc(0)[1].Index = 7
	if err := h.Validate(); err == nil {
		t.Fatalf("expected validation error")
	}
}

func TestBuildRejectsWrongLengthDeps(t *testing.T) {
	b := New(spec.Register(""))
	b.Process().UpdateDeps(spec.Write{V: "a"}, []uint64{0, 0, 0})
	b.Process().QueryOmega(spec.Read{}, spec.RegVal("a"))
	if _, err := b.Build(); err == nil {
		t.Fatal("a 3-entry dependency vector in a 2-process history must not build")
	}
	rec := NewRecorder(spec.Register(""), 2)
	rec.UpdateDeps(0, spec.Write{V: "a"}, []uint64{0})
	if _, err := rec.History(); err == nil {
		t.Fatal("a 1-entry dependency vector in a 2-process history must not build")
	}
}

func TestParseCounterMap(t *testing.T) {
	h, err := Parse(`
		countermap
		p0: Inc(views,3) R(views)/3 R*/{stock=-2,views=3}ω
		p1: Dec(stock,2) Inc(a,b,1) R(stock)/-2ω
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// The key of Inc(a,b,1) splits at the LAST comma: key "a,b".
	text := Format(h)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("parse(format): %v\n%s", err, text)
	}
	if back.String() != h.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back.String(), h.String())
	}
}

func TestParseSetMembership(t *testing.T) {
	h, err := Parse(`
		set
		p0: I(1) C(1)/⊤ C(2)/⊥ R/{1}ω
		p1: I(a)/b) C(a)/b)/⊤ C(3)/⊥ω
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	q := h.Proc(0)[1]
	if in, ok := q.QIn.(spec.Has); !ok || in.V != "1" || q.QOut != spec.Bool(true) {
		t.Fatalf("C(1)/⊤ parsed as %v/%v", q.QIn, q.QOut)
	}
	// The element of C(a)/b)/⊤ splits at the LAST ")/": element "a)/b".
	if in := h.Proc(1)[1].QIn.(spec.Has); in.V != "a)/b" {
		t.Fatalf("element split at the wrong \")/\": %q", in.V)
	}
	text := Format(h)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("parse(format): %v\n%s", err, text)
	}
	if back.String() != h.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back.String(), h.String())
	}
	for _, bad := range []string{"set\np0: C(1)\n", "set\np0: C(1)/yes\n", "set\np0: C(1/⊤\n"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}
