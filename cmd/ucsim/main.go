// Command ucsim runs one replicated-object scenario on the
// deterministic simulator and reports per-replica convergence, network
// traffic, and (optionally) the recorded history's classification.
//
// Two modes:
//
//   - the set comparison harness (default): pick a set implementation
//     (-impl uc-set, or-set, ...) and compare against the CRDT
//     baselines of §VI;
//   - the generic object mode (-obj): build any registered object
//     through the public updatec.New API — the nine built-ins plus
//     anything an application registered with updatec.Define — with an
//     optional shard count for the partitionable ones and an optional
//     consistency level (-consistency uc|causal).
//
// Usage:
//
//	ucsim [-impl uc-set|or-set|...] [-n 3] [-ops 12] [-seed 1] [-crash p]
//	      [-shards s] [-classify] [-fig2]
//	ucsim -obj countermap -n 3 -shards 4 -ops 100 [-seed 1] [-crash p] [-classify]
//	      [-resize s'] [-recover] [-consistency uc|causal]
//	ucsim -chaos 12 [-obj set] [-n 4] [-ops 400] [-seed 1] [-shards s]
//	      [-resize s'] [-fifo] [-classify]
//	ucsim -scenario churn|flash|zipf-hot|regions|skew|mixed [-obj set] [-n 8]
//	      [-ops 400] [-seed 1] [-shards s] [-resize s'] [-fifo] [-classify]
//
// -scenario name compiles a declarative scenario (internal/chaos DSL) —
// churn (crash/recover waves), flash crowds, zipf-skewed key popularity,
// regional partitions with partial heals, clock-skewed sessions, or all
// of them at once (mixed) — into a deterministic fault/workload
// timeline and replays it against a real cluster. The schedule
// fingerprint is printed so reruns can be compared: the same seed
// reproduces it.
//
// -resize s' (generic object mode, partitionable objects) resizes the
// cluster live to s' shards halfway through the workload, with the
// adversary's backlog in flight across the flip.
//
// -recover (with -crash p) brings the crashed replica back at the
// three-quarter mark: it rejoins with its pre-crash state and pulls the
// update suffix it missed from its peers by anti-entropy digest sync.
//
// -chaos e adds e feasible-action fault events — crash/recover/
// partition/heal/lossy-link windows — to the timeline (with or without
// -scenario). Both modes run on the one chaos executor: the cluster is
// repaired (heal, rejoin, digest sync rounds) and convergence is
// asserted. The event trace is printed; the same seed reproduces it
// bit-for-bit.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"updatec"
	"updatec/internal/chaos"
	"updatec/internal/check"
	"updatec/internal/sim"
)

func main() {
	impl := flag.String("impl", "uc-set", "set implementation: "+kindList())
	obj := flag.String("obj", "", "generic object mode, any registered object: "+strings.Join(updatec.Objects(), ", "))
	consistency := flag.String("consistency", "uc", "consistency level for -obj mode: uc (update-consistent) or causal")
	n := flag.Int("n", 3, "number of processes")
	ops := flag.Int("ops", 12, "number of updates in the random workload")
	seed := flag.Int64("seed", 1, "simulation seed")
	crash := flag.Int("crash", -1, "crash this process halfway through")
	fifo := flag.Bool("fifo", false, "per-link FIFO delivery")
	shards := flag.Int("shards", 1, "key shards per replica (partitionable objects only)")
	resize := flag.Int("resize", 0, "resize to this shard count halfway through (-obj mode, partitionable objects)")
	classify := flag.Bool("classify", false, "record the history and classify it (keep ops small)")
	fig2 := flag.Bool("fig2", false, "run the Figure 2 workload under a full partition")
	recoverFlag := flag.Bool("recover", false, "with -crash p: recover the crashed replica at the 3/4 mark (anti-entropy rejoin)")
	chaosEvents := flag.Int("chaos", 0, "run a seeded chaos schedule with this many fault events")
	scenario := flag.String("scenario", "", "run a generated scenario preset: "+presetList())
	flag.Parse()

	var level updatec.Level
	switch *consistency {
	case "uc", "update-consistent":
		level = updatec.UpdateConsistent
	case "causal":
		level = updatec.Causal
	default:
		fmt.Fprintf(os.Stderr, "ucsim: unknown consistency level %q (known: uc, causal)\n", *consistency)
		os.Exit(2)
	}
	if level != updatec.UpdateConsistent && (*scenario != "" || *chaosEvents > 0 || *obj == "") {
		fmt.Fprintf(os.Stderr, "ucsim: -consistency causal requires the generic object mode (-obj) without -chaos or -scenario: the chaos and scenario harnesses build their clusters at the default level\n")
		os.Exit(2)
	}

	if *scenario != "" || *chaosEvents > 0 {
		implSet := false
		flag.Visit(func(f *flag.Flag) { implSet = implSet || f.Name == "impl" })
		if implSet || *fig2 || *crash >= 0 || *recoverFlag {
			fmt.Fprintf(os.Stderr, "ucsim: -chaos and -scenario schedule their own faults; they cannot be combined with -impl, -fig2, -crash or -recover\n")
			os.Exit(2)
		}
		var cfg chaos.Config
		if *scenario != "" {
			preset, ok := chaos.Presets()[*scenario]
			if !ok {
				fmt.Fprintf(os.Stderr, "ucsim: unknown scenario %q (known: %s)\n", *scenario, presetList())
				os.Exit(2)
			}
			cfg = preset
		}
		cfg.Object = *obj
		if cfg.Object == "" {
			cfg.Object = "set"
		}
		cfg.N, cfg.Ops, cfg.Seed, cfg.FIFO = *n, *ops, *seed, *fifo
		cfg.Shards, cfg.Resize, cfg.Events, cfg.Record = *shards, *resize, *chaosEvents, *classify
		if err := runChaos(cfg, *scenario); err != nil {
			fmt.Fprintf(os.Stderr, "ucsim: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *recoverFlag && *crash < 0 {
		fmt.Fprintf(os.Stderr, "ucsim: -recover requires -crash p (a replica to recover)\n")
		os.Exit(2)
	}

	if *obj != "" {
		// The generic object mode replaces the set comparison harness;
		// reject its flags rather than silently running a different
		// experiment than the one asked for.
		implSet := false
		flag.Visit(func(f *flag.Flag) { implSet = implSet || f.Name == "impl" })
		if implSet || *fig2 {
			fmt.Fprintf(os.Stderr, "ucsim: -obj cannot be combined with -impl or -fig2 (they select the set comparison harness)\n")
			os.Exit(2)
		}
		if err := runObject(*obj, level, *n, *shards, *resize, *ops, *seed, *crash, *fifo, *classify, *recoverFlag); err != nil {
			fmt.Fprintf(os.Stderr, "ucsim: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *resize != 0 {
		fmt.Fprintf(os.Stderr, "ucsim: -resize requires the generic object mode (-obj)\n")
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	sc := sim.Scenario{
		Kind: sim.SetKind(*impl), N: *n, Shards: *shards, Seed: *seed, FIFO: *fifo,
		Script: sim.RandomScript(rng, *n, *ops, []string{"1", "2", "3"}, 4),
		Record: *classify,
	}
	if *fig2 {
		sc.N = 2
		sc.Script = sim.Fig2Script()
		sc.PartitionUntil = len(sc.Script)
		sc.PartitionGroups = [][]int{{0}, {1}}
		sc.Record = true
	}
	if *crash >= 0 {
		sc.CrashAt = map[int]int{len(sc.Script) / 2: *crash}
	}
	if !validKind(sc.Kind) {
		fmt.Fprintf(os.Stderr, "ucsim: unknown implementation %q (known: %s)\n", *impl, kindList())
		os.Exit(2)
	}

	out := sim.Run(sc)
	fmt.Printf("implementation: %s   processes: %d   script: %d ops   seed: %d\n",
		sc.Kind, sc.N, len(sc.Script), sc.Seed)
	ids := make([]int, 0, len(out.Final))
	for p := range out.Final {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	for _, p := range ids {
		fmt.Printf("  p%d converged to %s\n", p, out.Final[p])
	}
	fmt.Printf("converged: %v\n", out.Converged)
	fmt.Printf("network: %s\n", out.Net)
	if out.History != nil {
		fmt.Printf("\nrecorded history:\n%s", out.History.String())
		if *classify || *fig2 {
			c := check.Classify(out.History)
			fmt.Printf("classification: EC=%v SEC=%v UC=%v SUC=%v PC=%v CC=%v\n",
				c.EC, c.SEC, c.UC, c.SUC, c.PC, c.CC)
		}
	}
	if !out.Converged {
		os.Exit(1)
	}
}

// runObject drives a random workload through the public generic API.
// The object is resolved from the descriptor registry — built-in or
// Define-registered — and its own workload generator issues the
// updates; the scenario loop (crash injection, adversarial partial
// deliveries, settle, convergence report) is object-independent.
func runObject(name string, level updatec.Level, n, shards, resize int, ops int, seed int64, crash int, fifo, classify, recoverCrashed bool) error {
	obj, err := updatec.Lookup(name)
	if err != nil {
		return err
	}
	if _, ok := obj.RandomUpdate(rand.New(rand.NewSource(0)), "probe"); !ok {
		return fmt.Errorf("object %q has no workload generator (Define it with updatec.WithWorkload)", name)
	}
	return runGeneric(obj, level, n, shards, resize, ops, seed, crash, fifo, classify, recoverCrashed)
}

func runGeneric(obj updatec.Object[updatec.Handle], level updatec.Level, n, shards, resize int, ops int, seed int64, crash int, fifo, classify, recoverCrashed bool) error {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	opts := []updatec.Option{updatec.WithSeed(seed)}
	if level != updatec.UpdateConsistent {
		opts = append(opts, updatec.WithConsistency(level))
	}
	if fifo {
		opts = append(opts, updatec.WithFIFO())
	}
	if shards > 1 {
		opts = append(opts, updatec.WithShards(shards))
	}
	if classify {
		opts = append(opts, updatec.WithRecording())
	}
	cluster, handles, err := updatec.New(n, obj, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	crashed := map[int]bool{}
	resized := false
	for i := 0; i < ops; i++ {
		if crash >= 0 && i == ops/2 && !crashed[crash] {
			if err := cluster.Crash(crash); err != nil {
				return err
			}
			crashed[crash] = true
		}
		if recoverCrashed && crashed[crash] && i == ops*3/4 {
			if err := cluster.Recover(crash); err != nil {
				return err
			}
			delete(crashed, crash)
			synced, _ := cluster.RepairStats()
			fmt.Printf("recovered: p%d rejoined at op %d, anti-entropy landed %d missed entries\n",
				crash, i, synced)
		}
		if resize > 0 && i == ops/2 && !resized {
			if err := cluster.Resize(resize); err != nil {
				return err
			}
			fmt.Printf("resized: %d -> %d shards at op %d (backlog in flight)\n", shards, resize, i)
			resized = true
		}
		p := rng.Intn(n)
		if crashed[p] {
			continue // a crashed process issues nothing
		}
		if u, ok := obj.RandomUpdate(rng, keys[rng.Intn(len(keys))]); ok {
			handles[p].Update(u)
		}
		for d := rng.Intn(4); d > 0; d-- {
			if !cluster.Deliver() {
				break
			}
		}
	}
	cluster.Settle()
	fmt.Printf("object: %s   level: %s   processes: %d   shards: %d   ops: %d   seed: %d\n",
		obj.Name(), level, n, cluster.Shards(), ops, seed)
	if resized {
		_, moved := cluster.ResizeStats()
		fmt.Printf("reshard: %d live log entries moved at replica 0\n", moved)
	}
	converged := cluster.Converged()
	fmt.Printf("converged: %v\n", converged)
	st := cluster.Stats()
	fmt.Printf("network: broadcasts=%d sends=%d bytes=%d\n", st.Broadcasts, st.Sends, st.Bytes)
	if classify {
		c, err := cluster.Classify()
		if err != nil {
			return err
		}
		fmt.Printf("classification: EC=%v SEC=%v UC=%v SUC=%v PC=%v CC=%v\n",
			c.EventuallyConsistent, c.StrongEventuallyConsistent,
			c.UpdateConsistent, c.StrongUpdateConsistent, c.PipelinedConsistent,
			c.CausallyConsistent)
	}
	if !converged {
		os.Exit(1)
	}
	return nil
}

// runChaos hands the run to the internal/chaos executor and reports
// its trace, fault/repair counters, schedule fingerprint and
// (optionally) the recorded history's classification.
func runChaos(cfg chaos.Config, scenario string) error {
	res, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	if scenario == "" {
		scenario = "none"
	}
	fmt.Printf("chaos: object=%s n=%d ops=%d seed=%d shards=%d events=%d scenario=%s\n",
		cfg.Object, cfg.N, cfg.Ops, cfg.Seed, cfg.Shards, cfg.Events, scenario)
	for _, line := range res.Trace {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("issued: %d updates   events: %d crashes, %d recoveries, %d partitions, %d partial heals, %d heals, %d fault windows\n",
		res.Issued, res.Crashes, res.Recovers, res.Partitions, res.PartialHeals, res.Heals, res.FaultWindows)
	fmt.Printf("loss: %d dropped to crashed replicas, %d dropped/duplicated on faulty links\n",
		res.DroppedCrash, res.DroppedLink)
	fmt.Printf("repair: %d entries landed by anti-entropy, %d duplicate arrivals absorbed\n",
		res.SyncApplied, res.DupDropped)
	fmt.Printf("schedule fingerprint: %016x (the same seed reproduces it)\n", res.Fingerprint)
	if res.Classification != nil {
		c := res.Classification
		fmt.Printf("classification: EC=%v SEC=%v UC=%v SUC=%v PC=%v CC=%v\n",
			c.EventuallyConsistent, c.StrongEventuallyConsistent,
			c.UpdateConsistent, c.StrongUpdateConsistent, c.PipelinedConsistent,
			c.CausallyConsistent)
	}
	fmt.Printf("converged: %v\n", res.Converged)
	if !res.Converged {
		os.Exit(1)
	}
	return nil
}

func presetList() string {
	names := make([]string, 0)
	for name := range chaos.Presets() {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func kindList() string {
	var names []string
	for _, k := range sim.SetKinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

func validKind(k sim.SetKind) bool {
	for _, known := range sim.SetKinds() {
		if k == known {
			return true
		}
	}
	return false
}
