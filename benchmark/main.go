// Command ucperf is the repository's performance benchmark: five workloads
// driven through the default public paths (updatec.New, ListenAndServe,
// Dial), eight end-to-end metrics, and a traced pass that prices every
// layer from outside the program. README.md describes the workloads, the
// metrics and how they are expected to interact.
//
//	bash benchmark/run.sh --workload live-write --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -report [-workload a,b] [-reps n] [-quick] [-trace 1] > a.json
//	bash benchmark/run.sh -compare a1.json,a2.json b1.json,b2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// benchmarkFile is the contract at the repository root; ucperf reads the
// regression bounds from it.
const benchmarkFile = "BENCHMARK.json"

type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile() (*benchmarkJSON, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &bj, nil
}

func (bj *benchmarkJSON) bounds() map[string]float64 {
	m := map[string]float64{}
	for _, e := range bj.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}

// metricValue is one metric of the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is what the driver reads from the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine records where a report was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// fullReport is what -report prints and -compare reads.
type fullReport struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Quick     bool               `json:"quick,omitempty"`
	Workloads map[string]*report `json:"workloads"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The checkout the driver runs in is not a git repository; when there
	// is one, resolve HEAD by hand rather than spawning git.
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + name); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		m.Commit = ref
	}
	return m
}

func main() {
	fs := flag.NewFlagSet("ucperf", flag.ExitOnError)
	names := fs.String("workload", "", "workload name, or a comma-separated list with -report (default: all)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "how long one workload measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	reps := fs.Int("reps", 0, "measure exactly this many units per workload instead of -seconds")
	quick := fs.Bool("quick", false, "quarter-size units, one repeat; for local iteration, refused by -compare")
	full := fs.Bool("report", false, "run every selected workload and print one report object")
	compare := fs.Bool("compare", false, "compare -report files, a comma-separated list per side: ucperf -compare a1.json,a2.json b1.json,b2.json")
	fs.Parse(os.Args[1:])

	bj, err := readBenchmarkFile()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two lists of report files"))
		}
		os.Exit(compareReports(fs.Arg(0), fs.Arg(1), bj, os.Stdout))
	}
	cfg := runConfig{seed: *seed, scale: 1, seconds: *seconds, reps: *reps, trace: *trace != 0, bounds: bj.bounds()}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(bj.RunSeconds)
	}
	if *quick {
		cfg.scale, cfg.reps = 0.25, 1
	}
	var selected []*workload
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		selected = append(selected, w)
	}

	if *full {
		if len(selected) == 0 {
			for i := range workloads {
				selected = append(selected, &workloads[i])
			}
		}
		out := fullReport{Machine: thisMachine(), Seed: *seed, Quick: *quick, Workloads: map[string]*report{}}
		for _, w := range selected {
			rep, err := runWorkload(w, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			out.Workloads[w.name] = rep
			printTable(os.Stderr, w.name, rep)
		}
		emit(out)
		return
	}

	if len(selected) != 1 {
		fatal(fmt.Errorf("name one workload with -workload (or use -report); have %s", workloadNames()))
	}
	rep, err := runWorkload(selected[0], cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", selected[0].name, err))
	}
	printTable(os.Stderr, selected[0].name, rep)
	// The contract fixes the result line's shape, which has no room for a
	// flag: metrics too unsteady to trust are named on stderr.
	if names := unstableNames(rep); len(names) > 0 {
		fmt.Fprintf(os.Stderr, "unstable (spread of the units wider than the bound): %s\n", strings.Join(names, ", "))
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	defs, from := endToEnd, rep.Metrics
	if cfg.trace {
		// The contract wants every per-layer name from every workload; a
		// layer that is off this workload's path reads 0 here.
		defs, from = perLayer, rep.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: from[d.name].Value, Unit: d.unit}
	}
	emit(line)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ucperf:", err)
	os.Exit(2)
}
