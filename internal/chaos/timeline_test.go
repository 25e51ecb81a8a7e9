package chaos

import (
	"reflect"
	"testing"
)

// TestScenarioCompileDeterministic: a spec IS its timeline — compiling
// twice must produce deeply equal events, issuers and keys.
func TestScenarioCompileDeterministic(t *testing.T) {
	for name, spec := range Presets() {
		spec.N, spec.Ops, spec.Seed = 12, 300, 42
		a, b := spec.Compile(), spec.Compile()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: compile is not deterministic", name)
		}
	}
}

// TestScenarioChurnFeasible: compiled churn events must always crash
// a live replica and recover a down one, and leave everyone live by the
// end of the timeline (the executor replays them without guessing).
func TestScenarioChurnFeasible(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		spec := Config{N: 5, Ops: 200, Seed: seed, Churn: &ChurnSpec{Events: 20}}
		tl := spec.Compile()
		down := map[int]bool{}
		for _, ev := range tl.Events {
			switch ev.Kind {
			case EvCrash:
				if down[ev.Proc] {
					t.Fatalf("seed %d: crash of already-down p%d", seed, ev.Proc)
				}
				down[ev.Proc] = true
			case EvRecover:
				if !down[ev.Proc] {
					t.Fatalf("seed %d: recover of live p%d", seed, ev.Proc)
				}
				delete(down, ev.Proc)
			}
		}
		if len(down) != 0 {
			t.Fatalf("seed %d: %d replicas still down after the timeline", seed, len(down))
		}
	}
}

// TestScenarioZipfHotKey: a steep zipf exponent concentrates the
// workload on one scorching key.
func TestScenarioZipfHotKey(t *testing.T) {
	spec := Config{N: 4, Ops: 1000, Seed: 7, Keys: 8, Zipf: &ZipfSpec{S: 20, V: 1}}
	tl := spec.Compile()
	hot := 0
	for _, k := range tl.Key {
		if k == 0 {
			hot++
		}
	}
	if hot < 900 {
		t.Fatalf("zipf S=20 put only %d/1000 updates on the hot key", hot)
	}
}

// TestScenarioRegionsPartialHeals: each cycle must split into the full
// region count, then re-partition with strictly fewer groups at every
// partial heal, then fully heal.
func TestScenarioRegionsPartialHeals(t *testing.T) {
	spec := Config{N: 9, Ops: 300, Seed: 3, Regions: &RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true}}
	tl := spec.Compile()
	groups := -1
	heals := 0
	for _, ev := range tl.Events {
		switch ev.Kind {
		case EvPartition:
			if len(ev.Groups) != 3 {
				t.Fatalf("partition opened %d groups, want 3", len(ev.Groups))
			}
			groups = 3
		case EvPartialHeal:
			if len(ev.Groups) >= groups {
				t.Fatalf("partial heal to %d groups after %d", len(ev.Groups), groups)
			}
			groups = len(ev.Groups)
		case EvHeal:
			heals++
		}
	}
	if heals != 2 {
		t.Fatalf("expected 2 full heals, saw %d", heals)
	}
}

// TestScenarioFlashAndSkewShapeTraffic: flash crowds and skew must
// actually bend the issuer distribution — the crowd's replicas issue
// far above their uniform share during the window, and the fastest
// skew class outissues the slowest.
func TestScenarioFlashAndSkewShapeTraffic(t *testing.T) {
	spec := Config{N: 16, Ops: 4000, Seed: 11,
		Flash: &FlashSpec{Crowds: 1, Width: 0.5, Boost: 12, Focus: 0.25},
		Skew:  &SkewSpec{MaxSkew: 4},
	}
	tl := spec.Compile()
	counts := make([]int, spec.N)
	for _, p := range tl.Issuer {
		counts[p]++
	}
	slow, fast := 0, 0
	for i, c := range counts {
		if i%skewClasses == 0 {
			slow += c
		}
		if i%skewClasses == skewClasses-1 {
			fast += c
		}
	}
	if fast <= slow {
		t.Fatalf("skew did not bend traffic: fastest class issued %d, slowest %d", fast, slow)
	}
}
