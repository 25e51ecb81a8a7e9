// Command ucbench prints the tables that reproduce the paper: Figures 1
// and 2 (E1/E2), Propositions 1–4 (E3–E6), the §VI set case study (E7),
// the §VII-C complexity claims (E8) and Algorithm 2's memory bound (E9),
// plus the partition claim of the paper's first announcement (E10),
// anti-entropy repair after a long fault (E18) and the two consistency
// levels (E22). The go tests in internal/bench assert what these tables
// show; ucperf (benchmark/) is the instrument for speed.
//
// Usage:
//
//	ucbench [-exp all|fig1|prop1|prop2|prop3|prop4|sets|complexity|memory|partition|recovery|consistency]
//	        [-quick] [-runs n]
//
// -exp accepts a comma-separated list. ucbench exits 1 when a table
// contradicts the paper (a figure misclassified, a hierarchy violation,
// an Insert-wins failure, a run that did not converge).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"updatec/internal/bench"
)

// experiment is one table: the names -exp selects it by, and a runner
// that prints it and returns what, if anything, contradicts the paper.
type experiment struct {
	names []string
	run   func(w io.Writer, quick bool, runs int) string
}

var experiments = []experiment{
	{[]string{"fig1", "fig2"}, func(w io.Writer, _ bool, _ int) string {
		if res := bench.Figures(w); res.Mismatches != 0 {
			return fmt.Sprintf("%d classification mismatches", res.Mismatches)
		}
		return ""
	}},
	{[]string{"prop1"}, func(w io.Writer, _ bool, _ int) string {
		bench.Proposition1(w)
		return ""
	}},
	{[]string{"prop2"}, func(w io.Writer, _ bool, runs int) string {
		if res := bench.Proposition2(w, runs); res.Violations != 0 {
			return fmt.Sprintf("%d hierarchy violations", res.Violations)
		}
		return ""
	}},
	{[]string{"prop3"}, func(w io.Writer, _ bool, runs int) string {
		if res := bench.Proposition3(w, runs/4); res.InsertWinsFailures != 0 {
			return fmt.Sprintf("%d Insert-wins failures", res.InsertWinsFailures)
		}
		return ""
	}},
	{[]string{"prop4"}, func(w io.Writer, _ bool, _ int) string {
		if !bench.Proposition4(w).AllConverged() {
			return "convergence failures"
		}
		return ""
	}},
	{[]string{"sets"}, func(w io.Writer, _ bool, _ int) string {
		bench.SetCaseStudy(w)
		return ""
	}},
	{[]string{"complexity"}, func(w io.Writer, quick bool, _ int) string {
		bench.Complexity(w, quick)
		return ""
	}},
	{[]string{"memory"}, func(w io.Writer, quick bool, _ int) string {
		bench.MemoryExperiment(w, quick)
		return ""
	}},
	{[]string{"partition"}, func(w io.Writer, _ bool, _ int) string {
		bench.PartitionHeal(w)
		return ""
	}},
	{[]string{"recovery"}, func(w io.Writer, quick bool, _ int) string {
		bench.Recovery(w, quick)
		return ""
	}},
	{[]string{"consistency"}, func(w io.Writer, quick bool, _ int) string {
		bench.Consistency(w, quick)
		return ""
	}},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: all, fig1, prop1, prop2, prop3, prop4, sets, complexity, memory, partition, recovery, consistency")
	quick := flag.Bool("quick", false, "smaller workloads for a fast pass")
	runs := flag.Int("runs", 400, "randomized-history runs for prop2; prop3 runs a quarter of them")
	flag.Parse()

	selected := make([]bool, len(experiments))
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		found := false
		for i, e := range experiments {
			for _, n := range e.names {
				if name == "all" || name == n {
					selected[i], found = true, true
				}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ucbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	failed := false
	for i, e := range experiments {
		if !selected[i] {
			continue
		}
		if msg := e.run(os.Stdout, *quick, *runs); msg != "" {
			fmt.Fprintf(os.Stderr, "ucbench: %s\n", msg)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
