package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"updatec/internal/check"
)

func TestUCSetScenarioConvergesAndRecordsSUC(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := Scenario{
			Kind: UCSet, N: 2, Seed: seed, Record: true,
			Script: RandomScript(rng, 2, 4, []string{"1", "2"}, 3),
		}
		out := Run(sc)
		if !out.Converged {
			t.Fatalf("seed %d: uc-set diverged: %v", seed, out.Final)
		}
		r := check.SUC(out.History)
		if !r.Holds {
			t.Fatalf("seed %d: history not SUC (%s):\n%s",
				seed, r.Reason, out.History.String())
		}
	}
}

func TestAllKindsRunAndCRDTsConverge(t *testing.T) {
	for _, kind := range SetKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			sc := Scenario{
				Kind: kind, N: 3, Seed: 3,
				Script: RandomScript(rng, 3, 10, []string{"1", "2", "3"}, 0),
			}
			out := Run(sc)
			if kind == Eager {
				return // the eager set may legitimately diverge
			}
			if !out.Converged {
				t.Fatalf("%s diverged: %v", kind, out.Final)
			}
		})
	}
}

func TestEagerDivergesOnFig2WithPartition(t *testing.T) {
	// Proposition 1's scenario: while partitioned, each process
	// applies only its own updates; after healing, the eager set has
	// applied the conflicting D(3)/I(3) in different orders at the two
	// replicas for some seed.
	diverged := false
	for seed := int64(0); seed < 50 && !diverged; seed++ {
		out := Run(Scenario{
			Kind: Eager, N: 2, Seed: seed, FIFO: true,
			Script:          Fig2Script(),
			PartitionUntil:  len(Fig2Script()), // heal after the script
			PartitionGroups: [][]int{{0}, {1}},
		})
		diverged = !out.Converged
	}
	if !diverged {
		t.Fatalf("eager set never diverged on the Fig. 2 workload")
	}
}

func TestUCSetConvergesOnFig2UnderPartition(t *testing.T) {
	// The same adversarial schedule cannot diverge Algorithm 1.
	for seed := int64(0); seed < 50; seed++ {
		out := Run(Scenario{
			Kind: UCSet, N: 2, Seed: seed, FIFO: true,
			Script:          Fig2Script(),
			PartitionUntil:  len(Fig2Script()),
			PartitionGroups: [][]int{{0}, {1}},
			Record:          true,
		})
		if !out.Converged {
			t.Fatalf("seed %d: uc-set diverged under partition: %v", seed, out.Final)
		}
		if !check.EC(out.History).Holds {
			t.Fatalf("seed %d: uc-set history not EC", seed)
		}
	}
}

func TestCrashInjection(t *testing.T) {
	script := []Op{
		{Proc: 0, Kind: OpInsert, V: "a"},
		{Proc: 1, Kind: OpInsert, V: "b"},
		{Proc: 2, Kind: OpInsert, V: "c"}, // p2 crashes before this step
		{Proc: 0, Kind: OpRead},
	}
	out := Run(Scenario{
		Kind: UCSet, N: 3, Seed: 1, Script: script,
		CrashAt: map[int]int{2: 2}, Record: true,
	})
	if len(out.Final) != 2 {
		t.Fatalf("expected 2 survivors, got %v", out.Final)
	}
	if !out.Converged {
		t.Fatalf("survivors diverged: %v", out.Final)
	}
	// The crashed process issued nothing at step 2, so c is absent.
	for _, key := range out.Final {
		if key != "{a, b}" {
			t.Fatalf("survivor state %s, want {a, b}", key)
		}
	}
}

// TestQuickUCSetAlwaysConverges: the harness-level restatement of
// Proposition 4 across seeds, sizes and crash patterns.
func TestQuickUCSetAlwaysConverges(t *testing.T) {
	f := func(seed int64, nn, cc uint8) bool {
		n := int(nn%3) + 2
		rng := rand.New(rand.NewSource(seed))
		script := RandomScript(rng, n, 8, []string{"1", "2"}, 4)
		crash := map[int]int{}
		if cc%2 == 0 && n > 2 {
			crash[int(cc)%len(script)] = n - 1
		}
		out := Run(Scenario{
			Kind: UCSet, N: n, Seed: seed, Script: script, CrashAt: crash,
		})
		return out.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestScriptStringRendering(t *testing.T) {
	ops := []Op{
		{Proc: 0, Kind: OpInsert, V: "1"},
		{Proc: 1, Kind: OpDelete, V: "2"},
		{Proc: 0, Kind: OpRead},
	}
	want := []string{"p0:I(1)", "p1:D(2)", "p0:R"}
	for i, op := range ops {
		if op.String() != want[i] {
			t.Fatalf("op %d renders %q, want %q", i, op.String(), want[i])
		}
	}
}

func TestNetStatsReported(t *testing.T) {
	out := Run(Scenario{
		Kind: UCSet, N: 2, Seed: 0,
		Script: []Op{{Proc: 0, Kind: OpInsert, V: "x"}},
	})
	if out.Net.Broadcasts != 1 {
		t.Fatalf("§VII-C: exactly one broadcast per update, got %d", out.Net.Broadcasts)
	}
}

// TestShardedScenarioConverges: the sharded uc-set kinds converge under
// the same adversarial scenarios as the unsharded ones, and recording
// still classifies the run as update consistent at the harness level.
func TestShardedScenarioConverges(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			out := Run(Scenario{
				Kind:   UCSet,
				N:      3,
				Shards: shards,
				Seed:   seed,
				Script: RandomScript(rng, 3, 40, []string{"1", "2", "3", "4", "5"}, 0),
			})
			if !out.Converged {
				t.Fatalf("shards=%d seed=%d: sharded uc-set diverged: %v", shards, seed, out.Final)
			}
		}
	}
}

// TestShardedScenarioWithPartition: a healed partition still converges
// when updates are sharded.
func TestShardedScenarioWithPartition(t *testing.T) {
	out := Run(Scenario{
		Kind:            UCSet,
		N:               4,
		Shards:          4,
		Seed:            7,
		Script:          append(Fig2Script(), Fig1bScript()...),
		PartitionUntil:  6,
		PartitionGroups: [][]int{{0, 1}, {2, 3}},
	})
	if !out.Converged {
		t.Fatalf("sharded cluster did not converge after heal: %v", out.Final)
	}
	// Final is the merged read R, not a per-shard rendering.
	for p, key := range out.Final {
		if strings.Contains(key, "|") {
			t.Fatalf("p%d final %q is not a set read", p, key)
		}
	}
}

// TestShardsRejectedForBaselines: only the uc-set kinds shard; a §VI
// baseline asked for shards is refused, not run unsharded.
func TestShardsRejectedForBaselines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("a sharded or-set scenario ran")
		}
	}()
	Run(Scenario{Kind: ORSet, N: 2, Shards: 2, Script: Fig1bScript()})
}
