// Command uccheck classifies a distributed history under the paper's
// consistency criteria (EC, SEC, UC, SUC, PC, CC, plus SC and
// Insert-wins for set histories) and prints witnesses for the criteria
// that hold.
//
// The input format is the paper's figure notation (see
// internal/history.Parse): a data-type name followed by one line per
// process, e.g.
//
//	set
//	p0: I(1) R/{2} R/{1} R/∅ω
//	p1: I(2) R/{1} R/{2} R/∅ω
//
// Usage:
//
//	uccheck [-v] [file]        (reads stdin without a file argument)
//	uccheck -fig 1a|1b|1c|1d|2 (classify a built-in paper figure)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"updatec/internal/check"
	"updatec/internal/history"
)

func main() {
	verbose := flag.Bool("v", false, "print witnesses for criteria that hold")
	fig := flag.String("fig", "", "classify a built-in figure: 1a, 1b, 1c, 1d, 2")
	flag.Parse()
	if err := run(os.Stdout, *fig, flag.Arg(0), *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "uccheck: %v\n", err)
		os.Exit(1)
	}
}

// run classifies the history named by fig or read from file (stdin
// when both are empty) and writes the verdicts to w.
func run(w io.Writer, fig, file string, verbose bool) error {
	h, err := load(fig, file)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "history over %s:\n%s\n", h.ADT().Name(), h.String())

	results := []check.Result{
		check.EC(h), check.SEC(h), check.UC(h), check.SUC(h), check.PC(h), check.CC(h), check.SC(h),
	}
	if h.ADT().Name() == "set" {
		results = append(results, check.InsertWins(h))
	}
	for _, r := range results {
		verdict := "no"
		switch {
		case r.Undecided:
			verdict = "undecided"
		case r.Holds:
			verdict = "YES"
		}
		fmt.Fprintf(w, "%-4s %s", r.Criterion, verdict)
		if !r.Holds && !r.Undecided && r.Reason != "" {
			fmt.Fprintf(w, "  (%s)", r.Reason)
		}
		fmt.Fprintln(w)
		if verbose && r.Holds {
			printWitness(w, h, r)
		}
	}
	return nil
}

func load(fig, path string) (*history.History, error) {
	if fig != "" {
		for _, f := range history.Figures() {
			if strings.EqualFold(f.Label, "Fig"+fig) {
				return f.H, nil
			}
		}
		return nil, fmt.Errorf("unknown figure %q (known: 1a, 1b, 1c, 1d, 2)", fig)
	}
	var (
		data []byte
		err  error
	)
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return history.Parse(string(data))
}

func printWitness(out io.Writer, h *history.History, r check.Result) {
	w := r.Witness
	if w == nil {
		return
	}
	switch {
	case r.Criterion == "EC":
		fmt.Fprintf(out, "     converged state: %s\n", h.ADT().KeyState(w.State))
	case len(w.Linearization) > 0:
		fmt.Fprintf(out, "     linearization: %s\n", renderWord(w.Linearization))
	case len(w.PerProc) > 0:
		for p := 0; p < h.NumProcs(); p++ {
			fmt.Fprintf(out, "     w%d = %s\n", p+1, renderWord(w.PerProc[p]))
		}
	}
	if len(w.UpdateOrder) > 0 {
		fmt.Fprintf(out, "     update order ≤: %s\n", renderWord(w.UpdateOrder))
	}
	if len(w.Visibility) > 0 {
		for _, q := range h.Queries() {
			fmt.Fprintf(out, "     V(%s@p%d) = %v\n", q, q.Proc, w.Visibility[q.ID])
		}
	}
}

func renderWord(events []*history.Event) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "·")
}
