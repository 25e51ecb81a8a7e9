// Package chaos drives seeded fault schedules — crash, recover,
// partition, heal, per-link drop/duplication windows, live resizes,
// churn, flash crowds, skewed keys and clients — against any object of
// the public updatec API, then repairs the cluster (heal + recover +
// anti-entropy) and asserts convergence.
//
// The harness exists to demonstrate the robustness claim of the
// partitionable-systems companion paper: update consistency is exactly
// the guarantee that survives long partitions, rejoining replicas and
// lossy links, PROVIDED the missing update suffixes are repaired — by
// the transport's redelivery where it still holds them, and by the
// anti-entropy digest sync where it does not (crash-dropped messages,
// injected link drops).
//
// A run has two halves. Config.Compile (timeline.go) turns the config
// into a timeline: the fault events in slot order, and the issuer and
// key of every update slot. Run executes that timeline, the one
// executor. A run is reproducible from its config: the same Config
// always produces the same trace, fault timing and delivery order, so a
// failing schedule is a regression test.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"updatec"
)

// Config describes one seeded run: the object under test, the cluster,
// and the scenario that Compile turns into a timeline. Zero Events, no
// Resize and nil sub-specs mean a plain uniform workload without faults.
type Config struct {
	// Object names the replicated data type, as in `ucsim -obj`: any
	// registered object with a workload generator.
	Object string
	// N replicas execute Ops update slots over a key space of Keys keys.
	// Defaults: N 4 (enough for a two-sided partition with a
	// spectator), Ops 400, Keys 16. A slot whose issuer is crashed issues
	// nothing, like a real client whose server is down.
	N, Ops, Keys int
	// Shards runs partitionable objects key-sharded.
	Shards int
	// Seed fixes the compiled timeline, the update payloads and the
	// network adversary's delivery schedule.
	Seed int64
	// FIFO requests per-link FIFO delivery from the transport.
	FIFO bool
	// Record records the run's history and classifies it under the
	// paper's criteria. Keep Ops small (the deciders solve NP-complete
	// problems).
	Record bool
	// Events is the number of feasible-action fault events placed
	// uniformly over the slots. Each picks uniformly among the actions
	// feasible at that point: crash a live replica (keeping at least one
	// alive), recover a crashed one, open a random two-sided partition,
	// heal it, open a drop/dup fault window on every link, or close it.
	Events int
	// Resize, when positive, resizes the cluster to this shard count at
	// the timeline midpoint — recovery and repair must compose with
	// epoch-tagged routing.
	Resize int

	// The scenario sub-specs (timeline.go); each non-nil one adds its
	// dimension to the timeline.
	Zipf    *ZipfSpec
	Churn   *ChurnSpec
	Flash   *FlashSpec
	Regions *RegionSpec
	Skew    *SkewSpec
	Faults  *FaultSpec
}

// Result reports one run.
type Result struct {
	// Converged reports whether every replica reached the same state
	// after final repair — the acceptance bar of every run.
	Converged bool
	// Issued counts updates actually issued (slots whose issuer was
	// crashed issue nothing — during a zero-replica churn window, no one
	// does).
	Issued int
	// Event counts, as executed.
	Crashes, Recovers, Partitions, PartialHeals, Heals, FaultWindows int
	// SyncApplied counts log entries landed by anti-entropy pulls;
	// DupDropped counts exact-duplicate arrivals the logs absorbed
	// (injected duplication, post-heal redelivery of synced entries).
	SyncApplied, DupDropped uint64
	// DroppedCrash and DroppedLink attribute transport-level message
	// loss; every one of these losses had to be repaired by a digest
	// exchange for Converged to hold.
	DroppedCrash, DroppedLink uint64
	// Fingerprint pins the adversary's delivery schedule — equal configs
	// reproduce it bit for bit.
	Fingerprint uint64
	// Classification is set when Config.Record was on.
	Classification *updatec.Classification
	// Trace is the human-readable event narrative, one line per event
	// plus the final repair.
	Trace []string
}

// control is the object-independent slice of *updatec.Cluster[H] the
// executor drives; every instantiation of the generic cluster
// satisfies it.
type control interface {
	Crash(p int) error
	Recover(p int) error
	Partition(groups ...[]int) error
	Heal() error
	Sync() error
	FaultAll(drop, dup float64) error
	Resize(s int) error
	Deliver() bool
	Settle()
	Converged() bool
	Stats() updatec.NetworkStats
	RepairStats() (uint64, uint64)
	Classify() (updatec.Classification, error)
	ScheduleFingerprint() uint64
	Close()
}

// harness pairs the type-erased cluster control with a mutator that
// issues one update on a given replica's typed handle, keyed by the
// timeline's chosen key (so the timeline controls key popularity); any
// secondary randomness comes from the rng.
type harness struct {
	ctl    control
	update func(p int, key string, rng *rand.Rand)
}

// build constructs the cluster for cfg.Object through the public API.
// The object is resolved from the descriptor registry, so any name a
// Define call registered — built-in or application-defined — runs
// under the same schedules; the object's own workload generator issues
// the updates.
func build(cfg Config) (*harness, error) {
	obj, err := updatec.Lookup(cfg.Object)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if _, ok := obj.RandomUpdate(rand.New(rand.NewSource(0)), "probe"); !ok {
		return nil, fmt.Errorf("chaos: object %q has no workload generator (Define it with updatec.WithWorkload)", cfg.Object)
	}
	opts := []updatec.Option{updatec.WithSeed(cfg.Seed)}
	if cfg.FIFO {
		opts = append(opts, updatec.WithFIFO())
	}
	if cfg.Shards > 1 {
		opts = append(opts, updatec.WithShards(cfg.Shards))
	}
	if cfg.Record {
		opts = append(opts, updatec.WithRecording())
	}
	cluster, handles, err := updatec.New(cfg.N, obj, opts...)
	if err != nil {
		return nil, err
	}
	return &harness{
		ctl: cluster,
		update: func(p int, key string, rng *rand.Rand) {
			if u, ok := obj.RandomUpdate(rng, key); ok {
				handles[p].Update(u)
			}
		},
	}, nil
}

// Run compiles cfg and executes its timeline: before each update slot
// it fires the slot's events, then the slot's issuer (if up) issues one
// update and the adversary delivers a few messages. The final repair
// closes any open fault window (so the remaining backlog drains
// losslessly), heals the partition (automatic digest exchange), brings
// every crashed replica back in id order (each pulls what it missed),
// settles the transport, and runs one last all-replica sync round to
// repair anything the fault window dropped after the last exchange.
//
// The returned error reports harness-level failures (unknown object,
// invalid option combination, a cluster call that errored); a run that
// completed but failed to converge is NOT an error — it is
// Result.Converged == false, for the caller to assert.
func Run(cfg Config) (Result, error) {
	tl := cfg.Compile()
	cfg = tl.Config
	if cfg.N < 2 {
		return Result{}, fmt.Errorf("chaos: need at least 2 replicas, got %d", cfg.N)
	}
	h, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.ctl.Close()

	var res Result
	// Delivery pacing gets its own stream, apart from the timeline's, so
	// it stays stable when a mutator changes its randomness use.
	delRng := rand.New(rand.NewSource(cfg.Seed ^ 0xde11))
	crashed := map[int]bool{}
	partitioned, faulted := false, false
	next := 0
	for slot := 0; slot < cfg.Ops; slot++ {
		for ; next < len(tl.Events) && tl.Events[next].Slot == slot; next++ {
			ev := tl.Events[next]
			var err error
			switch ev.Kind {
			case EvCrash:
				err = h.ctl.Crash(ev.Proc)
				crashed[ev.Proc] = true
				res.Crashes++
			case EvRecover:
				err = h.ctl.Recover(ev.Proc)
				delete(crashed, ev.Proc)
				res.Recovers++
			case EvPartition:
				err = h.ctl.Partition(ev.Groups...)
				partitioned = true
				res.Partitions++
			case EvPartialHeal:
				err = h.ctl.Partition(ev.Groups...)
				res.PartialHeals++
			case EvHeal:
				// This may fire inside an open fault window: the heal-round
				// digest pulls then run over lossy links, and the final
				// repair must still close the gap.
				err = h.ctl.Heal()
				partitioned = false
				res.Heals++
			case EvFaultOpen:
				err = h.ctl.FaultAll(ev.Drop, ev.Dup)
				faulted = true
				res.FaultWindows++
			case EvFaultClose:
				err = h.ctl.FaultAll(0, 0)
				faulted = false
			case EvResize:
				err = h.ctl.Resize(ev.Shards)
			}
			if err != nil {
				return res, err
			}
			res.Trace = append(res.Trace, ev.String())
		}
		p := tl.Issuer[slot]
		if !crashed[p] {
			mutRng := rand.New(rand.NewSource(cfg.Seed ^ int64(slot)<<20 ^ int64(p)))
			h.update(p, fmt.Sprintf("k%d", tl.Key[slot]), mutRng)
			res.Issued++
		}
		for d := delRng.Intn(4); d > 0; d-- {
			if !h.ctl.Deliver() {
				break
			}
		}
	}

	if faulted {
		if err := h.ctl.FaultAll(0, 0); err != nil {
			return res, err
		}
	}
	if partitioned {
		if err := h.ctl.Heal(); err != nil {
			return res, err
		}
	}
	var down []int
	for p := range crashed {
		down = append(down, p)
	}
	sort.Ints(down)
	for _, p := range down {
		if err := h.ctl.Recover(p); err != nil {
			return res, err
		}
	}
	h.ctl.Settle()
	if err := h.ctl.Sync(); err != nil {
		return res, err
	}
	res.Trace = append(res.Trace, fmt.Sprintf("repair: heal + recover %v + settle + sync round", down))

	res.Converged = h.ctl.Converged()
	res.SyncApplied, res.DupDropped = h.ctl.RepairStats()
	st := h.ctl.Stats()
	res.DroppedCrash, res.DroppedLink = st.DroppedCrash, st.DroppedLink
	res.Fingerprint = h.ctl.ScheduleFingerprint()
	if cfg.Record {
		cl, err := h.ctl.Classify()
		if err != nil {
			return res, err
		}
		res.Classification = &cl
	}
	return res, nil
}
