package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// printTable writes the human-readable form of one workload's report.
func printTable(w io.Writer, name string, rep *report) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d measured_s=%.3f ref_ms=%.3f (nominal %.0f)", name, rep.Correct, rep.Attempted, rep.Failed, rep.MeasuredS, rep.RefMs, refNominalNs/1e6)
	if rep.RunTooShort {
		fmt.Fprint(w, " run_too_short")
	}
	fmt.Fprintln(w)
	// raw is printed for the end-to-end rows, the only ones that are scaled
	// to the reference speed.
	row := func(name string, s summary, scaled bool) {
		flags := ""
		if s.Unstable {
			flags += "  unstable"
		}
		if s.Secondary {
			flags += "  secondary"
		}
		raw := ""
		if scaled {
			raw = fmt.Sprintf("raw %14.6g  ", s.Raw)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-5s  %sbest %14.6g  min %14.6g  max %14.6g  spread %5.3f  n=%d%s\n", name, s.Value, s.Unit, raw, s.Best, s.Min, s.Max, s.Spread, s.N, flags)
	}
	for _, d := range endToEnd {
		row(d.name, rep.Metrics[d.name], true)
	}
	if rep.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, "  -- per layer (layers off this workload's path are not listed)")
	for _, d := range perLayer {
		if s, ok := rep.PerLayer[d.name]; ok {
			row(d.name, s, false)
		}
	}
	fmt.Fprintf(w, "  -- where one operation's %.0f ns went (traced run; self time of each span)\n", rep.PerOpNs)
	for _, r := range rep.Spans {
		fmt.Fprintf(w, "  %-16s %-13s count %9d  total %10.2f ms  self %10.2f ms  %10.1f ns/op\n", r.Name, r.Layer, r.Count, r.TotalMs, r.SelfMs, r.SelfNsPerOp)
	}
	un := rep.PerLayer["unattributed_ns"].Value
	fmt.Fprintf(w, "  unattributed %.1f ns/op (%.1f %% of the per-op time); spans written to %s\n", un, 100*un/rep.PerOpNs, rep.SpanFile)
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minPairs is how many pairs of reports a gain needs before -compare
// calls it (choosing-metrics, "Measuring in a small sandbox").
const minPairs = 10

// side is one metric of one workload over the reports of one side.
type side struct {
	values []float64 // each report's value, in the order given
	median float64
	iqr    float64 // between the reports when there are at least four
	spread float64 // iqr ÷ median; with fewer reports the widest spread inside one
}

func sideOf(reps []*report, metric string) side {
	var s side
	for _, r := range reps {
		m := r.Metrics[metric]
		s.values = append(s.values, m.Value)
		s.spread = max(s.spread, m.Spread)
	}
	s.median = median(s.values)
	if len(s.values) >= 4 && s.median != 0 {
		q1, q3 := quartiles(s.values)
		s.iqr = q3 - q1
		s.spread = s.iqr / s.median
	}
	return s
}

// verdict compares b against a. A spread wider than the bound on either
// side means the runs cannot resolve a change of that size. worse is a
// median beyond the bound; better needs minPairs pairs of which b wins nine
// in ten, and medians further apart than a's own quartiles.
func verdict(a, b side, higher bool, bound float64) (ratio float64, v string) {
	if a.median == 0 {
		return 0, verdictUnresolved
	}
	ratio = b.median / a.median
	if a.spread > bound || b.spread > bound {
		return ratio, verdictUnresolved
	}
	sign := 1.0
	if !higher {
		sign = -1
	}
	if sign*(ratio-1) < -bound {
		return ratio, verdictWorse
	}
	pairs, wins := min(len(a.values), len(b.values)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b.values[i]-a.values[i]) > 0 {
			wins++
		}
	}
	if pairs >= minPairs && wins*10 >= pairs*9 && sign*(b.median-a.median) > a.iqr {
		return ratio, verdictBetter
	}
	return ratio, verdictSame
}

// readReports reads a comma-separated list of -report files.
func readReports(list string) ([]*fullReport, error) {
	var out []*fullReport
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r fullReport
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Quick {
			return nil, fmt.Errorf("%s is a -quick report; compare full-size runs only", path)
		}
		out = append(out, &r)
	}
	return out, nil
}

// workloadsOf gathers each workload's reports; a workload counts only when
// every report of the side has it.
func workloadsOf(reps []*fullReport) map[string][]*report {
	out := map[string][]*report{}
	for _, r := range reps {
		for name, w := range r.Workloads {
			out[name] = append(out[name], w)
		}
	}
	for name, ws := range out {
		if len(ws) != len(reps) {
			delete(out, name)
		}
	}
	return out
}

func failRatio(reps []*report) float64 {
	failed, attempted := 0, 0
	for _, r := range reps {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareReports prints one row per workload × end-to-end metric the
// workload is gated on and returns the exit code: non-zero on any worse
// verdict, any increase in failed operations, or a workload only one side
// measured. listA and listB are comma-separated -report files, paired by
// position: run them alternately, a1 b1 b2 a2 ….
func compareReports(listA, listB string, bj *benchmarkJSON, w io.Writer) int {
	ra, err := readReports(listA)
	if err != nil {
		fmt.Fprintln(w, "ucperf:", err)
		return 2
	}
	rb, err := readReports(listB)
	if err != nil {
		fmt.Fprintln(w, "ucperf:", err)
		return 2
	}
	bounds := bj.bounds()
	wa, wb := workloadsOf(ra), workloadsOf(rb)
	var names []string
	for name := range wa {
		names = append(names, name)
	}
	for name := range wb {
		if wa[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d report(s) against %d; a gain is called from %d pairs on\n", len(ra), len(rb), minPairs)
	code := 0
	for _, name := range names {
		if wa[name] == nil || wb[name] == nil {
			fmt.Fprintf(w, "%-12s measured on one side only  %s\n", name, verdictUnresolved)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			if secondary(d.name, name) {
				continue
			}
			sa, sb := sideOf(wa[name], d.name), sideOf(wb[name], d.name)
			ratio, v := verdict(sa, sb, d.higher, bounds[d.name])
			fmt.Fprintf(w, "%-12s %-22s %14.6g -> %14.6g %-4s  x%.3f of %.6g  spread %.3f / %.3f  %s\n", name, d.name, sa.median, sb.median, d.unit, ratio, sa.median, sa.spread, sb.spread, v)
			if v == verdictWorse {
				code = 1
			}
		}
		fa, fb := failRatio(wa[name]), failRatio(wb[name])
		v := verdictSame
		if fb > fa {
			v, code = verdictWorse, 1
		}
		fmt.Fprintf(w, "%-12s %-22s %14.6f -> %14.6f ratio %s\n", name, "fail_ratio", fa, fb, v)
	}
	return code
}

// unstableNames lists the end-to-end metrics of a report whose units spread
// wider than their bound.
func unstableNames(rep *report) []string {
	var out []string
	for name, s := range rep.Metrics {
		if s.Unstable {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}
