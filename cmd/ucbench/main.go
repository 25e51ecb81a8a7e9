// Command ucbench regenerates the reproduction's experiment tables
// (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
// output).
//
// Usage:
//
//	ucbench [-exp all|fig1|prop1|prop2|prop3|prop4|sets|complexity|memory|partition|latency|join|shards|readmostly|stepbacklog|resize|recovery|scenario|consistency]
//	        [-quick] [-runs n] [-shards list] [-json path] [-label name]
//
// -exp accepts a comma-separated list (e.g. -exp shards,readmostly) so one
// invocation can refresh several machine-readable sections at once.
//
// With -json, every experiment that ran emits its machine-readable
// results into the given path, which holds a per-PR time series: a
// "runs" array of labeled entries. The entry whose label matches
// -label is replaced in place; other entries are preserved and the
// array is kept sorted by label (numerically for prN-style labels), so
// each PR's recorded run accumulates into a cleanly diffable
// trajectory. Labels are validated — letters, digits, dots, dashes and
// underscores — because they become JSON-path keys for external
// tooling. BENCH_ucbench.json in the repository root is the tracked
// file.
//
// -shards sets the shard counts swept by the E14 shard-scaling
// experiment (default 1,2,4,8); the first count is the speedup
// baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"updatec/internal/bench"
)

// report is one labeled entry of the trajectory file: the
// machine-readable results of every experiment the invocation ran.
type report struct {
	Label       string                     `json:"label,omitempty"`
	Experiment  string                     `json:"experiment"`
	Quick       bool                       `json:"quick"`
	GoVersion   string                     `json:"go_version"`
	Figures     *bench.FiguresResult       `json:"figures,omitempty"`
	Prop1       *bench.Prop1Result         `json:"prop1,omitempty"`
	Prop2       *bench.Prop2Result         `json:"prop2,omitempty"`
	Prop3       *bench.Prop3Result         `json:"prop3,omitempty"`
	Prop4       *bench.Prop4Result         `json:"prop4,omitempty"`
	Sets        []bench.SetsResult         `json:"sets,omitempty"`
	Complexity  *bench.ComplexityResult    `json:"complexity,omitempty"`
	Memory      *bench.MemoryResult        `json:"memory,omitempty"`
	Partition   *bench.PartitionResult     `json:"partition,omitempty"`
	Latency     *bench.LatencyResult       `json:"latency,omitempty"`
	Join        *bench.JoinResult          `json:"join,omitempty"`
	Shards      *bench.ShardResult         `json:"shards,omitempty"`
	ReadMostly  *bench.ReadMostlyResult    `json:"readmostly,omitempty"`
	StepBacklog *bench.StepBacklogResult   `json:"stepbacklog,omitempty"`
	Reshard     *bench.ReshardResult       `json:"reshard,omitempty"`
	Recovery    *bench.RecoveryResult      `json:"recovery,omitempty"`
	Scenario    *bench.ScenarioScaleResult `json:"scenario,omitempty"`
	Consistency *bench.ConsistencyResult   `json:"consistency,omitempty"`
	// Results of the retired single-sample experiments E13, E20 and E21
	// (ucperf measures those paths now), carried through untouched so a
	// rewrite of the trajectory file keeps what earlier PRs recorded.
	HotPath json.RawMessage `json:"hotpath,omitempty"`
	Writers json.RawMessage `json:"writers,omitempty"`
	Wire    json.RawMessage `json:"wire,omitempty"`
}

// trajectory is the BENCH_ucbench.json shape: one entry per recorded
// run, labeled per PR.
type trajectory struct {
	Runs []report `json:"runs"`
}

// loadTrajectory reads an existing trajectory file; a legacy
// single-report file (PR 1/2 wrote one unlabeled report) is wrapped
// as the first run so the history is preserved. A file that exists
// but cannot be parsed is an error — rewriting it would silently wipe
// every recorded run.
func loadTrajectory(path string) (trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return trajectory{}, nil
	}
	if err != nil {
		return trajectory{}, err
	}
	var tr trajectory
	if err := json.Unmarshal(data, &tr); err == nil && len(tr.Runs) > 0 {
		return tr, nil
	}
	var legacy report
	if err := json.Unmarshal(data, &legacy); err == nil && legacy.Experiment != "" {
		if legacy.Label == "" {
			legacy.Label = "pr2"
		}
		return trajectory{Runs: []report{legacy}}, nil
	}
	return trajectory{}, fmt.Errorf("%s is neither a trajectory nor a legacy report; refusing to overwrite it", path)
}

// upsert replaces the run with rep's label, or appends it, and keeps
// the runs sorted by label so regenerating the file diffs cleanly
// whatever order labels were recorded in.
func (tr *trajectory) upsert(rep report) {
	for i := range tr.Runs {
		if tr.Runs[i].Label == rep.Label {
			tr.Runs[i] = rep
			tr.sort()
			return
		}
	}
	tr.Runs = append(tr.Runs, rep)
	tr.sort()
}

func (tr *trajectory) sort() {
	sort.SliceStable(tr.Runs, func(i, j int) bool {
		return labelLess(tr.Runs[i].Label, tr.Runs[j].Label)
	})
}

// labelLess orders labels naturally: a shared alphabetic prefix with
// numeric suffixes compares numerically ("pr2" < "pr10"), anything
// else lexically — so the prN trajectory stays in PR order past pr9.
func labelLess(a, b string) bool {
	pa, na, oka := splitLabel(a)
	pb, nb, okb := splitLabel(b)
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

// splitLabel splits a label into an alphabetic prefix and a numeric
// suffix; ok reports whether the label has that shape.
func splitLabel(s string) (prefix string, num int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return s, 0, false
	}
	return s[:i], n, true
}

// validLabel restricts -label to characters safe as JSON-path keys for
// external trajectory tooling.
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// parseShardCounts parses the -shards flag value.
func parseShardCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: all, fig1, prop1, prop2, prop3, prop4, sets, complexity, memory, partition, latency, join, shards, readmostly, stepbacklog, resize, recovery, scenario, consistency")
	quick := flag.Bool("quick", false, "smaller workloads for a fast pass")
	runs := flag.Int("runs", 400, "randomized-history runs for prop2/prop3")
	shardsFlag := flag.String("shards", "1,2,4,8", "shard counts for the E14 shard-scaling experiment")
	jsonPath := flag.String("json", "", "merge machine-readable results into this trajectory file")
	label := flag.String("label", "dev", "trajectory entry to write (one per PR, e.g. pr3)")
	flag.Parse()

	if !validLabel(*label) {
		fmt.Fprintf(os.Stderr, "ucbench: -label %q must be non-empty letters, digits, dots, dashes or underscores\n", *label)
		os.Exit(2)
	}
	shardCounts, err := parseShardCounts(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucbench: -shards: %v\n", err)
		os.Exit(2)
	}

	w := os.Stdout
	rep := report{Label: *label, Experiment: *exp, Quick: *quick, GoVersion: runtime.Version()}
	experiments := strings.Split(*exp, ",")
	for _, name := range experiments {
		// "all" already includes every experiment, so it subsumes the
		// rest of the list.
		if strings.TrimSpace(name) == "all" {
			experiments = []string{"all"}
			break
		}
	}
	for _, name := range experiments {
		switch strings.TrimSpace(name) {
		// The result-carrying experiments are deduplicated against the
		// report, so lists like "shards,shards" do not run a sweep
		// twice.
		case "all":
			res := bench.All(w, *quick)
			rep.Figures, rep.Prop1, rep.Prop2 = &res.Figures, &res.Prop1, &res.Prop2
			rep.Prop3, rep.Prop4, rep.Sets = &res.Prop3, &res.Prop4, res.Sets
			rep.Complexity, rep.Memory = &res.Complexity, &res.Memory
			rep.Partition, rep.Latency, rep.Join = &res.Partition, &res.Latency, &res.Join
			rep.ReadMostly, rep.StepBacklog = &res.ReadMostly, &res.StepBacklog
			shards := bench.ShardScaling(w, *quick, shardCounts)
			rep.Shards = &shards
			reshard := bench.Reshard(w, *quick)
			rep.Reshard = &reshard
			recovery := bench.Recovery(w, *quick)
			rep.Recovery = &recovery
			scenario := bench.ScenarioScale(w, *quick)
			rep.Scenario = &scenario
			consistency := bench.Consistency(w, *quick)
			rep.Consistency = &consistency
		case "fig1", "fig2":
			if rep.Figures == nil {
				res := bench.Figures(w)
				rep.Figures = &res
				if res.Mismatches != 0 {
					fmt.Fprintf(os.Stderr, "ucbench: %d classification mismatches\n", res.Mismatches)
					os.Exit(1)
				}
			}
		case "prop1":
			if rep.Prop1 == nil {
				res := bench.Proposition1(w)
				rep.Prop1 = &res
			}
		case "prop2":
			if rep.Prop2 == nil {
				res := bench.Proposition2(w, *runs)
				rep.Prop2 = &res
				if res.Violations != 0 {
					fmt.Fprintf(os.Stderr, "ucbench: %d hierarchy violations\n", res.Violations)
					os.Exit(1)
				}
			}
		case "prop3":
			if rep.Prop3 == nil {
				res := bench.Proposition3(w, *runs)
				rep.Prop3 = &res
				if res.InsertWinsFailures != 0 {
					fmt.Fprintf(os.Stderr, "ucbench: %d Insert-wins failures\n", res.InsertWinsFailures)
					os.Exit(1)
				}
			}
		case "prop4":
			if rep.Prop4 == nil {
				res := bench.Proposition4(w)
				rep.Prop4 = &res
				if !res.AllConverged() {
					fmt.Fprintln(os.Stderr, "ucbench: convergence failures")
					os.Exit(1)
				}
			}
		case "sets":
			if rep.Sets == nil {
				rep.Sets = bench.SetCaseStudy(w)
			}
		case "complexity":
			if rep.Complexity == nil {
				res := bench.Complexity(w, *quick)
				rep.Complexity = &res
			}
		case "memory":
			if rep.Memory == nil {
				res := bench.MemoryExperiment(w, *quick)
				rep.Memory = &res
			}
		case "partition":
			if rep.Partition == nil {
				res := bench.PartitionHeal(w)
				rep.Partition = &res
			}
		case "latency":
			if rep.Latency == nil {
				res := bench.ConvergenceLatency(w)
				rep.Latency = &res
			}
		case "join":
			if rep.Join == nil {
				res := bench.StateTransfer(w)
				rep.Join = &res
			}
		case "shards":
			if rep.Shards == nil {
				res := bench.ShardScaling(w, *quick, shardCounts)
				rep.Shards = &res
			}
		case "readmostly":
			if rep.ReadMostly == nil {
				res := bench.ReadMostly(w, *quick)
				rep.ReadMostly = &res
			}
		case "stepbacklog":
			if rep.StepBacklog == nil {
				res := bench.StepBacklog(w, *quick)
				rep.StepBacklog = &res
			}
		case "recovery":
			if rep.Recovery == nil {
				res := bench.Recovery(w, *quick)
				rep.Recovery = &res
			}
		case "resize":
			if rep.Reshard == nil {
				res := bench.Reshard(w, *quick)
				rep.Reshard = &res
			}
		case "scenario":
			if rep.Scenario == nil {
				res := bench.ScenarioScale(w, *quick)
				rep.Scenario = &res
			}
		case "consistency":
			if rep.Consistency == nil {
				res := bench.Consistency(w, *quick)
				rep.Consistency = &res
			}
		default:
			fmt.Fprintf(os.Stderr, "ucbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *jsonPath != "" {
		tr, err := loadTrajectory(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucbench: reading %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		tr.upsert(rep)
		data, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucbench: encoding JSON report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ucbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nmerged JSON results into %s (label %q)\n", *jsonPath, *label)
	}
}
