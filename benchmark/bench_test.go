package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testScale runs every workload at a hundredth of its frozen size.
const testScale = 0.01

func testConfig(seed int64, trace bool) runConfig {
	return runConfig{seed: seed, scale: testScale, reps: 1, trace: trace}
}

// inRepoRoot runs the test from the repository root, where ucperf is
// meant to run (BENCHMARK.json, benchmark/out).
func inRepoRoot(t *testing.T) {
	t.Helper()
	t.Chdir("..")
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloads plays every workload once, untraced, and checks that the
// outputs are correct and every end-to-end metric is reported and non-zero.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, testConfig(1, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Fatalf("got %d end-to-end metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				s, ok := rep.Metrics[d.name]
				if !ok || s.N == 0 || s.Value <= 0 {
					t.Errorf("%s: %+v", d.name, s)
				}
				// Times grow and rates shrink with the reference time;
				// counts are reported as measured.
				want := s.Raw * math.Pow(refNominalNs/1e6/rep.RefMs, float64(speedExponent(d.unit)))
				if math.Abs(s.Value-want) > 1e-9*want {
					t.Errorf("%s: value %v, want raw %v scaled to %v", d.name, s.Value, s.Raw, want)
				}
			}
		})
	}
}

// TestTracedPass runs the traced pass on one workload of each driver: the
// layers on the workload's path are priced, the others are absent, the
// span file is written, and the honesty rows are there.
func TestTracedPass(t *testing.T) {
	inRepoRoot(t)
	for _, name := range []string{"live-write", "wire-ingest", "sim-heal"} {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(findWorkload(name), testConfig(1, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("attempted=%d failed=%d", rep.Attempted, rep.Failed)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.name] = true
			}
			for k := range rep.PerLayer {
				if !known[k] {
					t.Errorf("per-layer metric %s is not in the harness's list", k)
				}
			}
			if _, err := os.Stat(rep.SpanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			has := func(k string) bool { _, ok := rep.PerLayer[k]; return ok }
			layer := func(k string) float64 { return rep.PerLayer[k].Value }
			for _, k := range []string{"unattributed_ns", "trace_overhead_pct", "spec.encode_ns", "core.log.insert_inorder_ns", "updatec.allocs_per_op"} {
				if !has(k) {
					t.Errorf("%s missing", k)
				}
			}
			var absent []string
			switch name {
			case "live-write":
				absent = []string{"transport.tcp.frames_per_update", "transport.sim.sends", "core.sync.applied", "core.engine.cache_hit_ratio", "wire.client.send_ns"}
				if layer("wire.write_syscalls_per_update") > 0.001 {
					t.Errorf("wire.write_syscalls_per_update = %v on live-write, want ~0 (no socket)", layer("wire.write_syscalls_per_update"))
				}
				if layer("transport.live.sends_per_update") != 3 {
					t.Errorf("transport.live.sends_per_update = %v, want 3", layer("transport.live.sends_per_update"))
				}
			case "wire-ingest":
				absent = []string{"transport.live.sends_per_update", "transport.sim.sends", "core.sync.applied", "core.replica.deliver_ns"}
				if layer("transport.tcp.frames_per_update") < 2 || layer("core.log.late_depth_p50") != 0 {
					t.Errorf("frames_per_update = %v (want ≥ 2), late_depth_p50 = %v (want 0)", layer("transport.tcp.frames_per_update"), layer("core.log.late_depth_p50"))
				}
			case "sim-heal":
				absent = []string{"transport.live.sends_per_update", "transport.tcp.frames_per_update", "wire.client.send_ns"}
				if layer("core.sync.applied") == 0 || layer("core.log.late_ratio") == 0 {
					t.Errorf("sync.applied = %v, late_ratio = %v, want both > 0", layer("core.sync.applied"), layer("core.log.late_ratio"))
				}
			}
			for _, k := range absent {
				if has(k) {
					t.Errorf("%s = %v reported on %s, whose path does not cross that layer", k, layer(k), name)
				}
			}
		})
	}
}

// exactCounts are the traced counts that repeat exactly on the simulated
// network.
var exactCounts = []string{"transport.sim.sends", "transport.sim.bytes", "core.sync.applied", "core.sync.dup_dropped", "core.sync.reply_bytes", "spec.wire_bytes_per_update"}

// TestSimHealDeterminism: one seed gives identical counts on two runs,
// another seed different ones.
func TestSimHealDeterminism(t *testing.T) {
	inRepoRoot(t)
	counts := func(seed int64) map[string]float64 {
		rep, err := runWorkload(findWorkload("sim-heal"), testConfig(seed, true))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, k := range exactCounts {
			out[k] = rep.PerLayer[k].Value
		}
		return out
	}
	a, b, c := counts(7), counts(7), counts(8)
	differs := false
	for _, k := range exactCounts {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v with one seed", k, a[k], b[k])
		}
		differs = differs || a[k] != c[k]
	}
	if !differs {
		t.Errorf("seeds 7 and 8 gave identical counts: %v", a)
	}
}

// TestHarnessFaultIsCaught breaks the expected model — one update dropped
// from it — and expects the run to report failed operations.
func TestHarnessFaultIsCaught(t *testing.T) {
	for _, name := range []string{"live-read", "sim-heal"} {
		w := findWorkload(name)
		s := w.gen(1, testScale)
		if s.object == objSet {
			s.wantSet = s.wantSet[1:]
		} else {
			s.wantLines[0]++
		}
		u, err := runUnit(s, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if u.failed == 0 {
			t.Errorf("%s: a model missing one update went unnoticed", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the harness.
func TestBenchmarkJSON(t *testing.T) {
	inRepoRoot(t)
	bj, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in the harness", len(bj.Workloads), benchmarkFile, len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in %s, %d in the harness", len(bj.EndToEnd), benchmarkFile, len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound <= 0 || m.Bound > 0.25 || !metricName.MatchString(m.Name) {
			t.Errorf("end-to-end %d: %+v, harness has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in %s, %d in the harness", len(bj.PerLayer), benchmarkFile, len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || !metricName.MatchString(m.Name) {
			t.Errorf("per-layer %d: %+v, harness has %+v", i, m, d)
		}
	}
}

// TestCompare checks the verdicts and the exit code of -compare.
func TestCompare(t *testing.T) {
	inRepoRoot(t)
	bj, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	type opts struct {
		failed   int
		quick    bool
		workload string
	}
	// mk writes n reports whose ops_s values spread a little around opsPerS
	// and returns them as a -compare list.
	mk := func(n int, opsPerS float64, o opts) string {
		if o.workload == "" {
			o.workload = "live-write"
		}
		var paths []string
		for i := 0; i < n; i++ {
			rep := &report{Correct: o.failed == 0, Attempted: 100, Failed: o.failed, Metrics: map[string]summary{}}
			for _, d := range endToEnd {
				rep.Metrics[d.name] = summary{Value: 10, N: 3, Unit: d.unit}
			}
			rep.Metrics["ops_s"] = summary{Value: opsPerS * (1 + 0.002*float64(i%5)), N: 3, Unit: "1/s"}
			b, err := json.Marshal(fullReport{Quick: o.quick, Workloads: map[string]*report{o.workload: rep}})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "r.json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		return strings.Join(paths, ",")
	}
	for _, tc := range []struct {
		name, a, b string
		code       int
		want       string
	}{
		{"same", mk(1, 1000, opts{}), mk(1, 1010, opts{}), 0, verdictSame},
		{"one pair never claims a gain", mk(1, 1000, opts{}), mk(1, 2000, opts{}), 0, verdictSame},
		{"ten pairs do", mk(10, 1000, opts{}), mk(10, 1100, opts{}), 0, verdictBetter},
		{"worse", mk(1, 1000, opts{}), mk(1, 500, opts{}), 1, verdictWorse},
		{"worse over ten pairs", mk(10, 1000, opts{}), mk(10, 700, opts{}), 1, verdictWorse},
		{"more failures", mk(1, 1000, opts{}), mk(1, 1000, opts{failed: 1}), 1, verdictWorse},
		{"workload on one side only", mk(1, 1000, opts{}), mk(1, 1000, opts{workload: "sim-heal"}), 1, "one side only"},
		{"quick refused", mk(1, 1000, opts{}), mk(1, 1000, opts{quick: true}), 2, "quick"},
	} {
		var out bytes.Buffer
		code := compareReports(tc.a, tc.b, bj, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
		if tc.want == verdictSame && strings.Contains(out.String(), verdictBetter) {
			t.Errorf("%s: a gain was called:\n%s", tc.name, out.String())
		}
	}
	// A side whose reports disagree by more than the bound resolves nothing.
	wide := mk(5, 1000, opts{}) + "," + mk(5, 2000, opts{})
	var out bytes.Buffer
	if code := compareReports(wide, wide, bj, &out); code != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("wide spread: exit %d, want 0 with %q in:\n%s", code, verdictUnresolved, out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
