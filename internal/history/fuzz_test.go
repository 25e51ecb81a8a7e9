package history

import (
	"strings"
	"testing"
)

// FuzzParse: the parser must never panic, and whatever it accepts must
// validate, survive the Format round trip, and re-parse to an
// identical rendering. Run with `go test -fuzz FuzzParse` for
// continuous fuzzing; the seed corpus runs on every `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"set\np0: I(1) R/{2} R/{1} R/∅ω\np1: I(2) R/{1} R/{2} R/∅ω\n",
		"set\np0: I(1) D(2) R/{1,2}ω\np1: I(2) D(1) R/{1,2}ω\n",
		"set\np0: I(1) C(1)/⊤ C(2)/⊥ R/{1}ω\np1: D(1) C(1)/⊥ω\n",
		"counter\np0: Inc(1) Dec(2) R/-1ω\n",
		"register\np0: W(a) R/aω\n",
		"memory\np0: W(x,1) R(x)/1ω\n",
		"queue\np0: Enq(a) Deq Front/⊥ω\n",
		"stack\np0: Push(a) Pop Top/⊥ω\n",
		"log\np0: App(a) RL/[a]ω\n",
		"sequence\np0: InsAt(0,a) DelAt(0) RS/[]ω\n",
		"graph\np0: AddV(a) AddE(a,b) RG/(a|)ω\n",
		"",
		"set",
		"set\np0:",
		"set\np0: I(1)ω\n",
		"nosuchtype\np0: X\n",
		"set\np0: R/∅ω I(1)\n",
		"graph\np0: RG/(a|a→b)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		h, err := Parse(text)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted history fails validation: %v\ninput: %q", err, text)
		}
		rendered := Format(h)
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\nrendered: %q", err, rendered)
		}
		if back.String() != h.String() {
			t.Fatalf("round trip changed the history:\n%s\nvs\n%s", h, back)
		}
	})
}

// FuzzClassifyStability: classification of any parseable history must
// terminate (budgets), never panic, and respect the Prop. 2 hierarchy.
// The heavy lifting happens in internal/check; this fuzz target guards
// the parser-to-decider pipeline end to end.
func FuzzClassifyStability(f *testing.F) {
	f.Add("set\np0: I(1) R/{1}ω\np1: D(1) R/{1}ω\n")
	f.Add("set\np0: I(1) I(2) R/∅\np1: D(1) R/{2}ω\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 200 || strings.Count(text, "(") > 8 {
			return // keep decider inputs small
		}
		h, err := Parse(text)
		if err != nil || h.ADT().Name() != "set" {
			return
		}
		if len(h.Updates()) > 5 || len(h.Queries()) > 5 {
			return
		}
		_ = h.UpdateChains()
		_ = h.OmegaQueries()
	})
}
