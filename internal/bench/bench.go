// Package bench implements the experiment harness: one runner per
// paper artifact (Figures 1–2, Propositions 1–4, the §VI set study, the
// §VII-C complexity claims, the partition claim) plus the anti-entropy
// repair (E18) and consistency-level (E22) tables, each printing the
// table that reproduces it and returning a result struct the tests
// assert on. The cmd/ucbench binary is a thin printer over this package.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// newTable returns a tabwriter-backed table with a header row.
func newTable(w io.Writer, headers ...string) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(toAny(headers)...)
	return t
}

type table struct{ tw *tabwriter.Writer }

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// mark renders a boolean in the tables' compact notation.
func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// section prints an experiment banner.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}
