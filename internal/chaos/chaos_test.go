package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// TestSchedulesConverge is the harness's core property: for every
// object kind and a spread of seeds, a schedule of crashes, recoveries,
// partitions, heals and lossy-link windows ends — after repair — with
// every replica in the same state.
func TestSchedulesConverge(t *testing.T) {
	objects := []string{"set", "counter", "register", "log", "sequence", "graph", "kv", "memory", "countermap"}
	for _, obj := range objects {
		for seed := int64(1); seed <= 4; seed++ {
			res, err := Run(Config{Object: obj, Seed: seed, Ops: 200, Events: 10})
			if err != nil {
				t.Fatalf("%s seed %d: %v", obj, seed, err)
			}
			if !res.Converged {
				t.Fatalf("%s seed %d: failed to converge after repair\ntrace:\n%s",
					obj, seed, strings.Join(res.Trace, "\n"))
			}
		}
	}
}

// TestSchedulesExerciseRepair guards against a vacuously green harness:
// across the seed sweep, schedules must actually lose messages to
// crashes and link faults, and anti-entropy must actually land entries.
func TestSchedulesExerciseRepair(t *testing.T) {
	var crashes, faults int
	var droppedCrash, droppedLink, syncApplied, dupDropped uint64
	for seed := int64(1); seed <= 6; seed++ {
		res, err := Run(Config{Object: "set", Seed: seed, Ops: 300, Events: 14})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge\ntrace:\n%s", seed, strings.Join(res.Trace, "\n"))
		}
		crashes += res.Crashes
		faults += res.FaultWindows
		droppedCrash += res.DroppedCrash
		droppedLink += res.DroppedLink
		syncApplied += res.SyncApplied
		dupDropped += res.DupDropped
	}
	if crashes == 0 || faults == 0 {
		t.Fatalf("schedule sweep injected no crashes (%d) or fault windows (%d)", crashes, faults)
	}
	if droppedCrash == 0 || droppedLink == 0 {
		t.Fatalf("schedule sweep dropped nothing (crash=%d link=%d) — faults are not biting", droppedCrash, droppedLink)
	}
	if syncApplied == 0 {
		t.Fatalf("convergence held but anti-entropy applied nothing — repair path untested")
	}
	if dupDropped == 0 {
		t.Fatalf("duplication windows produced no duplicate drops — dedup path untested")
	}
}

// TestShardedScheduleWithResize runs chaos against a sharded
// countermap that resizes mid-schedule: recovery and digest sync must
// compose with epoch-tagged routing at the new shard count.
func TestShardedScheduleWithResize(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := Run(Config{Object: "countermap", Shards: 2, Resize: 5, Seed: seed, Ops: 300, Events: 12})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: sharded resize schedule did not converge\ntrace:\n%s",
				seed, strings.Join(res.Trace, "\n"))
		}
	}
}

// TestDeterministic: the same Config reproduces the same trace and the
// same counters bit-for-bit — a failing schedule is a regression test.
func TestDeterministic(t *testing.T) {
	cfg := Config{Object: "kv", Seed: 42, Ops: 250, Events: 12}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRecordedScheduleStaysUpdateConsistent records a small schedule
// and checks the paper's deciders: the chaotic run must still be
// eventually consistent and update consistent — the guarantee is
// supposed to survive faults, that is the whole point.
func TestRecordedScheduleStaysUpdateConsistent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Config{Object: "set", N: 3, Seed: seed, Ops: 12, Events: 3, Record: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if res.Classification == nil {
			t.Fatalf("seed %d: Record set but no classification", seed)
		}
		if !res.Classification.EventuallyConsistent || !res.Classification.UpdateConsistent {
			t.Fatalf("seed %d: classification lost the guarantee under chaos: %+v\ntrace:\n%s",
				seed, *res.Classification, strings.Join(res.Trace, "\n"))
		}
	}
}

// TestUnknownObject rejects junk.
func TestUnknownObject(t *testing.T) {
	if _, err := Run(Config{Object: "blockchain"}); err == nil {
		t.Fatal("expected an error for an unknown object")
	}
}

// findChurnBlackout searches the (deterministic) compile space for a
// seed whose churn timeline retires every replica simultaneously — the
// zero-replica window. Compilation is pure, so the search result is
// stable; failing to find one means the generator lost the ability to
// express the edge case.
func findChurnBlackout(t *testing.T, spec Config) Config {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		spec.Seed = seed
		tl := spec.Compile()
		down := 0
		for _, ev := range tl.Events {
			switch ev.Kind {
			case EvCrash:
				if down++; down == spec.N {
					return spec
				}
			case EvRecover:
				down--
			}
		}
	}
	t.Fatal("no seed under 500 produces a zero-replica churn window; the generator can no longer express it")
	return spec
}

// TestScenarioZeroReplicaChurnWindow: churn may retire the whole
// cluster at once; updates issued in that window are simply not issued
// (their issuers are down), everyone rejoins and pulls what they
// missed, and the run converges.
func TestScenarioZeroReplicaChurnWindow(t *testing.T) {
	spec := findChurnBlackout(t, Config{
		Object: "set", N: 3, Ops: 250,
		Churn: &ChurnSpec{Events: 24},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("zero-replica churn scenario (seed %d) did not converge:\n%v", spec.Seed, res.Trace)
	}
	if res.Issued >= spec.Ops {
		t.Fatalf("every slot issued (%d of %d) — the blackout window issued updates from retired replicas", res.Issued, spec.Ops)
	}
	if res.Crashes < spec.N {
		t.Fatalf("only %d crashes executed, want at least %d", res.Crashes, spec.N)
	}
}

// TestScenarioAllIsolatedPartition: a regional partition with as many
// regions as replicas isolates every replica — nothing crosses the
// wire until the heal, whose digest round must repair all sides.
func TestScenarioAllIsolatedPartition(t *testing.T) {
	res, err := Run(Config{
		Object: "kv", Shards: 2, N: 4, Ops: 200, Seed: 17,
		Regions: &RegionSpec{Regions: 4, Cycles: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("all-isolated partition scenario did not converge:\n%v", res.Trace)
	}
	if res.Partitions != 1 || res.Heals != 1 {
		t.Fatalf("expected one partition and one heal, got %d/%d", res.Partitions, res.Heals)
	}
}

// TestScenarioZipfSingleHotKey: a steep zipf exponent funnels nearly
// every update through one key — maximal per-key contention, every
// replica ends with the same resolution of it.
func TestScenarioZipfSingleHotKey(t *testing.T) {
	spec := Config{
		Object: "set", N: 4, Ops: 300, Seed: 23, Keys: 8,
		Zipf: &ZipfSpec{S: 20, V: 1},
	}
	tl := spec.Compile()
	hot := 0
	for _, k := range tl.Key {
		if k == 0 {
			hot++
		}
	}
	if hot*10 < len(tl.Key)*9 {
		t.Fatalf("zipf hot key holds only %d/%d updates", hot, len(tl.Key))
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("single-hot-key scenario did not converge:\n%v", res.Trace)
	}
}

// findHealInFaultWindow searches for a seed whose timeline fires a
// heal while a fault window is open — the repair-under-loss edge case.
func findHealInFaultWindow(t *testing.T, spec Config) Config {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		spec.Seed = seed
		tl := spec.Compile()
		faulted := false
		for _, ev := range tl.Events {
			switch ev.Kind {
			case EvFaultOpen:
				faulted = true
			case EvFaultClose:
				faulted = false
			case EvHeal:
				if faulted {
					return spec
				}
			}
		}
	}
	t.Fatal("no seed under 500 heals inside an open fault window; the generator can no longer express it")
	return spec
}

// TestScenarioHealDuringFaultWindow: the partition heals while every
// link still drops and duplicates — the heal's cross-cut redelivery
// runs lossy, and the final repair's sync round must close whatever it
// loses.
func TestScenarioHealDuringFaultWindow(t *testing.T) {
	spec := findHealInFaultWindow(t, Config{
		Object: "countermap", Shards: 2, N: 5, Ops: 300,
		Regions: &RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true},
		Faults:  &FaultSpec{Windows: 3, Width: 0.25, Drop: 0.3, Dup: 0.2},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("heal-during-fault-window scenario (seed %d) did not converge:\n%v", spec.Seed, res.Trace)
	}
	if res.DroppedLink == 0 {
		t.Fatal("fault window dropped nothing — the edge case did not exercise loss")
	}
}

// TestScenarioMixedPresetConverges: the kitchen-sink preset — churn,
// flash crowds, zipf skew, regional partial heals, clock skew and
// fault windows together — still converges after final repair, and a
// second run reproduces its schedule exactly.
func TestScenarioMixedPresetConverges(t *testing.T) {
	cfg := Presets()["mixed"]
	cfg.Object, cfg.Shards, cfg.N, cfg.Ops, cfg.Seed = "set", 2, 6, 300, 41
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged {
		t.Fatalf("mixed preset did not converge:\n%v", a.Trace)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverge across identical runs: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
}
