package updatec

// One benchmark per reproduced paper artifact (see the experiment
// index in the cmd/ucbench doc). The benchmarks exercise the same code paths as
// the ucbench experiment harness; custom metrics report the
// shape-level quantities the paper claims (bytes per update, log
// growth, who-converges-to-what), while ns/op captures the cost of
// each mechanism.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"updatec/internal/check"
	"updatec/internal/clock"
	"updatec/internal/core"
	"updatec/internal/history"
	"updatec/internal/sim"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// BenchmarkFigure1Classification (E1): decide all five criteria on the
// four Figure 1 histories and verify the paper's matrix.
func BenchmarkFigure1Classification(b *testing.B) {
	figs := history.Figures()[:4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fig := range figs {
			if got := check.Classify(fig.H); got != fig.Expect {
				b.Fatalf("%s misclassified", fig.Label)
			}
		}
	}
}

// BenchmarkFigure2 (E2): the PC-but-not-EC decision with its witness
// linearizations w1 and w2.
func BenchmarkFigure2(b *testing.B) {
	h := history.Fig2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !check.PC(h).Holds || check.EC(h).Holds {
			b.Fatalf("Fig2 misclassified")
		}
	}
}

// BenchmarkProposition1 (E3): one eager run and one Algorithm 1 run of
// the Figure 2 program under a full partition; eager loses
// convergence, Algorithm 1 loses PC.
func BenchmarkProposition1(b *testing.B) {
	script := sim.Fig2Script()
	for i := 0; i < b.N; i++ {
		seed := int64(i)
		eager := sim.Run(sim.Scenario{
			Kind: sim.Eager, N: 2, Seed: seed, FIFO: true, Script: script,
			PartitionUntil: len(script), PartitionGroups: [][]int{{0}, {1}},
		})
		uc := sim.Run(sim.Scenario{
			Kind: sim.UCSet, N: 2, Seed: seed, FIFO: true, Script: script,
			PartitionUntil: len(script), PartitionGroups: [][]int{{0}, {1}},
		})
		if eager.Converged || !uc.Converged {
			b.Fatalf("Proposition 1 shape broken: eager=%v uc=%v",
				eager.Converged, uc.Converged)
		}
	}
}

// BenchmarkProposition2 (E4): classify one random history per
// iteration and assert the hierarchy.
func BenchmarkProposition2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := history.RandomSet(rng, history.RandomSetOptions{
			Procs: 2, MaxUpdates: 2, MaxQueries: 1,
			Mode: history.RandomMode(i % 3), Omega: true,
		})
		c := check.Classify(h)
		if (c.SUC && (!c.SEC || !c.UC)) || (c.UC && !c.EC) {
			b.Fatalf("hierarchy violated")
		}
	}
}

// BenchmarkProposition3 (E5): record an Algorithm 1 run, decide SUC,
// and validate the constructed Insert-wins relation.
func BenchmarkProposition3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		out := sim.Run(sim.Scenario{
			Kind: sim.UCSet, N: 2, Seed: int64(i), Record: true,
			Script: sim.RandomScript(rng, 2, 4, []string{"1", "2"}, 3),
		})
		r := check.SUC(out.History)
		if !r.Holds {
			b.Fatalf("Algorithm 1 history not SUC")
		}
		if err := check.InsertWinsFromSUC(out.History, r.Witness); err != nil {
			b.Fatalf("Proposition 3: %v", err)
		}
	}
}

// BenchmarkAlgorithm1 (E6 / Prop. 4): a full 4-process, 16-update run
// with one crash; convergence asserted each iteration.
func BenchmarkAlgorithm1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		script := sim.RandomScript(rng, 4, 16, []string{"1", "2", "3"}, 4)
		out := sim.Run(sim.Scenario{
			Kind: sim.UCSet, N: 4, Seed: int64(i), Script: script,
			CrashAt: map[int]int{len(script) / 2: 3},
		})
		if !out.Converged {
			b.Fatalf("Algorithm 1 diverged")
		}
	}
}

// BenchmarkSetCaseStudy (E7): the Figure 1(b) conflict workload across
// all set implementations.
func BenchmarkSetCaseStudy(b *testing.B) {
	script := sim.Fig1bScript()
	for _, kind := range sim.SetKinds() {
		if kind == sim.GSet {
			continue
		}
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Scenario{
					Kind: kind, N: 2, Seed: 7, FIFO: true, Script: script,
					PartitionUntil: len(script), PartitionGroups: [][]int{{0}, {1}},
				})
			}
		})
	}
}

// BenchmarkQueryEngines (E8b): query cost per engine at several log
// lengths — the replay/checkpoint/undo crossover of §VII-C.
func BenchmarkQueryEngines(b *testing.B) {
	for _, length := range []int{64, 512, 4096} {
		for _, mk := range []func() core.Engine{
			func() core.Engine { return core.NewReplayEngine() },
			func() core.Engine { return core.NewCheckpointEngine(64) },
			func() core.Engine { return core.NewUndoEngine() },
		} {
			eng := mk()
			b.Run(fmt.Sprintf("%s/log=%d", eng.Name(), length), func(b *testing.B) {
				adt := spec.Set()
				log := core.NewLog(adt)
				eng.Bind(adt, log)
				for k := 0; k < length; k++ {
					at := log.Insert(core.Entry{
						TS: clock.Timestamp{Clock: uint64(k + 1), Proc: 0},
						U:  spec.Ins{V: fmt.Sprint(k % 5)},
					})
					eng.Inserted(at)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = eng.State()
				}
			})
		}
	}
}

// BenchmarkMessageOverhead (E8a): per-update network cost of
// Algorithm 1; bytes/update reported as a metric.
func BenchmarkMessageOverhead(b *testing.B) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 1})
	reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps[i%3].Update(spec.Ins{V: "ab"})
		if i%64 == 0 {
			net.Quiesce()
		}
	}
	b.StopTimer()
	net.Quiesce()
	st := net.Stats()
	if st.Broadcasts != uint64(b.N) {
		b.Fatalf("broadcasts %d != updates %d", st.Broadcasts, b.N)
	}
	b.ReportMetric(float64(st.Bytes)/float64(st.Sends), "payload-bytes/update")
}

// BenchmarkLogGC (E8c): steady traffic with stability compaction; the
// live log length is reported as a metric (compare BenchmarkLogNoGC).
func BenchmarkLogGC(b *testing.B) {
	benchGC(b, true)
}

// BenchmarkLogNoGC is the E8c baseline without compaction.
func BenchmarkLogNoGC(b *testing.B) {
	benchGC(b, false)
}

func benchGC(b *testing.B, gc bool) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 2, FIFO: true})
	reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{GC: gc, GCEvery: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps[i%3].Update(spec.Ins{V: fmt.Sprint(i % 7)})
		net.StepN(4)
	}
	b.StopTimer()
	net.Quiesce()
	reps[0].ForceCompact()
	b.ReportMetric(float64(reps[0].Stats().LogLen), "live-log-entries")
}

// BenchmarkMemory (E9): reads and writes of the masking replica
// (Algorithm 2's observation as the log policy) vs reads of the same
// memory with masking hidden (generic Algorithm 1, every write logged)
// after a 2000-write history.
func BenchmarkMemory(b *testing.B) {
	const writes = 2000
	keys := []string{"a", "b", "c", "d"}

	b.Run("alg2-read", func(b *testing.B) {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		reps := core.Cluster(2, spec.Memory("0"), net, core.ClusterOptions{})
		for k := 0; k < writes; k++ {
			reps[0].Update(spec.WriteKey{K: keys[k%len(keys)], V: fmt.Sprint(k)})
		}
		net.Quiesce()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps[0].Query(spec.ReadKey{K: "a"})
		}
	})
	b.Run("generic-replay-read", func(b *testing.B) {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		reps := core.Cluster(2, unmaskedMemory{MemorySpec: spec.Memory("0")}, net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewReplayEngine() },
		})
		for k := 0; k < writes; k++ {
			reps[0].Update(spec.WriteKey{K: keys[k%len(keys)], V: fmt.Sprint(k)})
		}
		net.Quiesce()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps[0].Query(spec.ReadKey{K: "a"})
		}
	})
	b.Run("generic-ckpt-read", func(b *testing.B) {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		reps := core.Cluster(2, unmaskedMemory{MemorySpec: spec.Memory("0")}, net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewCheckpointEngine(64) },
		})
		for k := 0; k < writes; k++ {
			reps[0].Update(spec.WriteKey{K: keys[k%len(keys)], V: fmt.Sprint(k)})
		}
		net.Quiesce()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps[0].Query(spec.ReadKey{K: "a"})
		}
	})
	b.Run("alg2-write", func(b *testing.B) {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		reps := core.Cluster(2, spec.Memory("0"), net, core.ClusterOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reps[0].Update(spec.WriteKey{K: keys[i%len(keys)], V: "v"})
			if i%256 == 0 {
				b.StopTimer()
				net.Quiesce()
				b.StartTimer()
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(reps[0].Stats().LogLen), "live-log-entries")
	})
}

// BenchmarkUpdateThroughput measures the wait-free local cost of one
// update (stamp, encode, broadcast, self-apply) on Algorithm 1.
func BenchmarkUpdateThroughput(b *testing.B) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 4})
	reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{
		NewEngine: func() core.Engine { return core.NewUndoEngine() },
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps[0].Update(spec.Ins{V: "x"})
		if i%256 == 0 {
			b.StopTimer()
			net.Quiesce()
			b.StartTimer()
		}
	}
}

// BenchmarkCheckpointIntervalAblation: the checkpoint engine's design
// knob. Small intervals approach the undo engine's query cost but pay
// more on late insertions (more snapshots invalidated and rebuilt);
// large intervals approach replay. Measured at log length 4096 with a
// 10% late-delivery mix.
func BenchmarkCheckpointIntervalAblation(b *testing.B) {
	for _, interval := range []int{16, 64, 256, 1024} {
		interval := interval
		b.Run(fmt.Sprintf("interval=%d", interval), func(b *testing.B) {
			adt := spec.Set()
			log := core.NewLog(adt)
			eng := core.NewCheckpointEngine(interval)
			eng.Bind(adt, log)
			rng := rand.New(rand.NewSource(7))
			perm := make([]int, 4096)
			for i := range perm {
				perm[i] = i
			}
			for i := range perm {
				if rng.Intn(100) < 10 {
					j := rng.Intn(len(perm))
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			for _, p := range perm {
				at := log.Insert(core.Entry{
					TS: clock.Timestamp{Clock: uint64(p + 1), Proc: 0},
					U:  spec.Ins{V: fmt.Sprint(p % 5)},
				})
				eng.Inserted(at)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.State()
			}
		})
	}
}

// BenchmarkGCEveryAblation: compaction period vs steady-state live log
// length and per-update cost. Frequent compaction keeps the log tiny
// at the price of more snapshot folds.
func BenchmarkGCEveryAblation(b *testing.B) {
	for _, every := range []int{4, 32, 256} {
		every := every
		b.Run(fmt.Sprintf("gcEvery=%d", every), func(b *testing.B) {
			net := transport.NewSim(transport.SimOptions{N: 3, Seed: 2, FIFO: true})
			reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{GC: true, GCEvery: every})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reps[i%3].Update(spec.Ins{V: fmt.Sprint(i % 7)})
				net.StepN(4)
			}
			b.StopTimer()
			net.Quiesce()
			b.ReportMetric(float64(reps[0].Stats().LogLen), "live-log-entries")
		})
	}
}

// BenchmarkSession: the overhead of the session layer's coverage check
// over a raw query.
func BenchmarkSession(b *testing.B) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 5})
	reps := core.ShardedCluster(3, 1, spec.Set(), net, core.ClusterOptions{
		NewEngine: func() core.Engine { return core.NewUndoEngine() },
	})
	for k := 0; k < 100; k++ {
		reps[k%3].Update(spec.Ins{V: fmt.Sprint(k % 9)})
	}
	net.Quiesce()
	sess := core.NewShardedSession(reps[0])
	sess.Update(spec.Ins{V: "mine"})
	b.Run("raw-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reps[0].Query(spec.Read{})
		}
	})
	b.Run("session-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := sess.TryQuery(spec.Read{}); !ok {
				b.Fatalf("own replica must cover the session")
			}
		}
	})
}

// BenchmarkShardedSession: session reads over a 4-shard counter map —
// a keyed read pays one lane's coverage check plus the owning shard's
// query cache; a whole-state read checks every lane and rides the
// merged-state cache.
func BenchmarkShardedSession(b *testing.B) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 7})
	reps := core.ShardedCluster(3, 4, spec.CounterMap(), net, core.ClusterOptions{
		NewEngine: func() core.Engine { return core.NewUndoEngine() },
	})
	for k := 0; k < 256; k++ {
		reps[k%3].Update(spec.AddKey{K: fmt.Sprint(k % 17), N: 1})
	}
	net.Quiesce()
	sess := core.NewShardedSession(reps[0])
	sess.Update(spec.AddKey{K: "mine", N: 1})
	net.Quiesce()
	b.Run("keyed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := sess.TryQuery(spec.ReadCtr{K: "mine"}); !ok {
				b.Fatalf("own replica must cover the session")
			}
		}
	})
	b.Run("whole-state", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := sess.TryQuery(spec.ReadAllCtrs{}); !ok {
				b.Fatalf("own replica must cover the session")
			}
		}
	})
}

// BenchmarkPartitionHeal (E10): a split-brain run with conflicting
// updates on both sides, healed and converged.
func BenchmarkPartitionHeal(b *testing.B) {
	script := []sim.Op{
		{Proc: 0, Kind: sim.OpInsert, V: "shared"},
		{Proc: 1, Kind: sim.OpInsert, V: "left"},
		{Proc: 2, Kind: sim.OpInsert, V: "right"},
		{Proc: 3, Kind: sim.OpDelete, V: "shared"},
	}
	for i := 0; i < b.N; i++ {
		out := sim.Run(sim.Scenario{
			Kind: sim.UCSet, N: 4, Seed: int64(i), FIFO: true,
			Script:          script,
			PartitionUntil:  len(script),
			PartitionGroups: [][]int{{0, 1}, {2, 3}},
		})
		if !out.Converged {
			b.Fatalf("partition heal diverged")
		}
	}
}

// BenchmarkStateTransfer (E12): snapshot a 200-update replica and
// restore a fresh one from it.
func BenchmarkStateTransfer(b *testing.B) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := core.Cluster(2, spec.Set(), net, core.ClusterOptions{})
	for k := 0; k < 200; k++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(k % 9)})
	}
	net.Quiesce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := reps[0].Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		net2 := transport.NewSim(transport.SimOptions{N: 2, Seed: 4})
		fresh := core.NewReplica(core.Config{ID: 1, N: 2, ADT: spec.Set(), Net: net2})
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogInsertInOrder measures the log's hot path: every entry
// arrives in timestamp order (the FIFO common case), so each insert
// lands at the tail in O(1) with no per-op allocation. The log is
// recycled in windows (off the clock) so the benchmark measures the
// insert, not GC pressure from an ever-growing history.
func BenchmarkLogInsertInOrder(b *testing.B) {
	const window = 8192
	adt := spec.Set()
	var u spec.Update = spec.Ins{V: "x"}
	log := core.NewLog(adt)
	log.Reserve(window)
	next := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if log.Len() == window {
			b.StopTimer()
			log = core.NewLog(adt)
			log.Reserve(window)
			b.StartTimer()
		}
		log.Insert(core.Entry{TS: clock.Timestamp{Clock: next, Proc: 0}, U: u})
		next++
	}
}

// BenchmarkLogInsertLate measures the slow path: every insert lands
// before a standing tail suffix, paying the binary search plus the
// suffix shift.
func BenchmarkLogInsertLate(b *testing.B) {
	const window = 8192
	const suffix = 256
	adt := spec.Set()
	var u spec.Update = spec.Ins{V: "x"}
	mkLog := func() *core.Log {
		log := core.NewLog(adt)
		log.Reserve(window + suffix)
		for i := 0; i < suffix; i++ {
			// A far-future suffix every late entry must displace.
			log.Insert(core.Entry{TS: clock.Timestamp{Clock: uint64(1 << 40), Proc: i}, U: u})
		}
		return log
	}
	log := mkLog()
	next := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if log.Len() == window+suffix {
			b.StopTimer()
			log = mkLog()
			b.StartTimer()
		}
		log.Insert(core.Entry{TS: clock.Timestamp{Clock: next, Proc: 0}, U: u})
		next++
	}
}

// BenchmarkLogCompact measures steady-state compaction: entries stream
// in at the tail and the stable prefix is folded away in chunks.
func BenchmarkLogCompact(b *testing.B) {
	adt := spec.Set()
	log := core.NewLog(adt)
	var u spec.Update = spec.Ins{V: "x"}
	const chunk = 64
	next := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < chunk; k++ {
			log.Insert(core.Entry{TS: clock.Timestamp{Clock: next, Proc: 0}, U: u})
			next++
		}
		log.CompactBelow(next - 1)
	}
}

// BenchmarkSimBroadcast measures the transport-only cost of one
// broadcast (n-1 envelopes enqueued) plus its full delivery.
func BenchmarkSimBroadcast(b *testing.B) {
	const n = 8
	net := transport.NewSim(transport.SimOptions{N: n, Seed: 1})
	for i := 0; i < n; i++ {
		net.Attach(i, func(int, []byte) {})
	}
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Broadcast(i%n, payload)
		net.StepN(n - 1)
	}
}

// BenchmarkSimStepBacklog measures one delivery step against a
// standing backlog of in-flight messages (the candidate-scan plus
// removal cost).
func BenchmarkSimStepBacklog(b *testing.B) {
	const n = 8
	net := transport.NewSim(transport.SimOptions{N: n, Seed: 1})
	for i := 0; i < n; i++ {
		net.Attach(i, func(int, []byte) {})
	}
	payload := []byte("0123456789abcdef")
	for i := 0; i < 128; i++ {
		net.Broadcast(i%n, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Broadcast(i%n, payload)
		net.StepN(n - 1)
	}
}

// BenchmarkSimStepBacklogSizes (E16) proves the eligible index makes
// one delivery step independent of the backlog: the standing backlog
// grows 64x across sub-benchmarks while ns/step stays flat, in both
// the unrestricted regime (O(1) pick) and FIFO (O(log pending)
// order-statistics pick).
func BenchmarkSimStepBacklogSizes(b *testing.B) {
	const n = 8
	for _, fifo := range []bool{false, true} {
		for _, backlog := range []int{128, 1024, 8192} {
			b.Run(fmt.Sprintf("fifo=%v/backlog=%d", fifo, backlog), func(b *testing.B) {
				net := transport.NewSim(transport.SimOptions{N: n, Seed: 1, FIFO: fifo})
				for i := 0; i < n; i++ {
					net.Attach(i, func(int, []byte) {})
				}
				payload := []byte("0123456789abcdef")
				for net.Pending() < backlog {
					net.Broadcast(net.Pending()%n, payload)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Broadcast(i%n, payload)
					net.StepN(n - 1)
				}
			})
		}
	}
}

// BenchmarkConverged measures the cluster convergence predicate on a
// settled 4-replica cluster — the polling loop of every experiment.
func BenchmarkConverged(b *testing.B) {
	cluster, sets, err := New(4, SetObject(), WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 512; k++ {
		sets[k%4].Insert(fmt.Sprint(k % 50))
	}
	cluster.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cluster.Converged() {
			b.Fatal("settled cluster must converge")
		}
	}
}

// BenchmarkConvergenceKey prices one convergence poll of a replica that
// is still moving — a 100 000-element set that lands one more update
// before every poll, as a wire daemon does while a client streams into
// its cluster: the canonical StateKey derives and serializes the whole
// state (O(n)), the update-set Fingerprint reads two words (O(1)).
func BenchmarkConvergenceKey(b *testing.B) {
	const size = 100_000
	for _, poll := range []struct {
		name string
		f    func(r *core.Replica)
	}{
		{"StateKey", func(r *core.Replica) { r.StateKey() }},
		{"Fingerprint", func(r *core.Replica) { r.Fingerprint() }},
	} {
		b.Run(poll.name, func(b *testing.B) {
			r := core.NewReplica(core.Config{ID: 1, N: 2, ADT: spec.Set(), Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})})
			next := uint64(1)
			land := func() {
				r.Absorb(clock.Timestamp{Clock: next, Proc: 0}, spec.Ins{V: fmt.Sprint("e", next)})
				next++
			}
			for next <= size {
				land()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				land()
				poll.f(r)
			}
		})
	}
}

// BenchmarkConcurrentQuery measures query throughput with many reader
// goroutines on one settled replica (live transport, undo engine).
func BenchmarkConcurrentQuery(b *testing.B) {
	net := transport.NewLive(2)
	defer net.Close()
	reps := core.Cluster(2, spec.Set(), net, core.ClusterOptions{
		NewEngine: func() core.Engine { return core.NewUndoEngine() },
	})
	for k := 0; k < 256; k++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(k % 40)})
	}
	net.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reps[0].Query(spec.Read{})
		}
	})
}

// BenchmarkQueryCached (E15) measures the read-mostly query path on a
// settled replica: "hit" repeats one query against an unchanged log
// (served from the version-keyed output cache), "miss" forces a log
// mutation between queries so every read rebuilds, and "parallel" has
// many reader goroutines sharing the cached output.
func BenchmarkQueryCached(b *testing.B) {
	mkSettled := func() *core.Replica {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 6})
		reps := core.Cluster(2, spec.Set(), net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewUndoEngine() },
		})
		for k := 0; k < 256; k++ {
			reps[0].Update(spec.Ins{V: fmt.Sprint(k % 40)})
		}
		net.Quiesce()
		return reps[0]
	}
	b.Run("hit", func(b *testing.B) {
		rep := mkSettled()
		rep.Query(spec.Read{}) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.Query(spec.Read{})
		}
	})
	b.Run("miss", func(b *testing.B) {
		rep := mkSettled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.Update(spec.Ins{V: fmt.Sprint(i % 40)})
			rep.Query(spec.Read{})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		rep := mkSettled()
		rep.Query(spec.Read{})
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rep.Query(spec.Read{})
			}
		})
	})
}

// BenchmarkSetElements prices the set's whole-state read R on a
// 7 000-element state. "64-new" reads after every 64 inserts, the
// shape of ucperf's live-read (the state goes back to its first 7 000
// elements every 16 reads); "never-read" reads a state no R has seen.
// The updates and resets are off the clock: ns/op is one R.
func BenchmarkSetElements(b *testing.B) {
	const size, burst, cycle = 7000, 64, 16
	adt := spec.Set()
	base := adt.Initial()
	for k := 0; k < size; k++ {
		base = adt.Apply(base, spec.Ins{V: fmt.Sprintf("key-%06d", k*7919%100000)})
	}
	fresh := make([]string, burst*cycle)
	for k := range fresh {
		fresh[k] = fmt.Sprintf("key-%06d", 100000+k*7919%100000)
	}
	b.Run("64-new", func(b *testing.B) {
		adt.Query(base, spec.Read{})
		var s spec.State
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%cycle == 0 {
				s = adt.Clone(base)
			}
			for _, v := range fresh[i%cycle*burst:][:burst] {
				s = adt.Apply(s, spec.Ins{V: v})
			}
			b.StartTimer()
			adt.Query(s, spec.Read{})
		}
	})
	b.Run("never-read", func(b *testing.B) {
		unread := adt.Initial()
		for k := 0; k < size; k++ {
			unread = adt.Apply(unread, spec.Ins{V: fmt.Sprintf("key-%06d", k*7919%100000)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := adt.Clone(unread)
			b.StartTimer()
			adt.Query(s, spec.Read{})
		}
	})
}

// BenchmarkShardedMergedQuery (E15) measures the whole-state query on a
// key-sharded replica: "settled" repeats the merged read against
// unchanged shards, "one-shard-dirty" updates a single key between
// reads (re-folding only the owning shard), and "all-shards-dirty"
// touches every shard between reads (the full S-fold cost).
func BenchmarkShardedMergedQuery(b *testing.B) {
	const shards = 4
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	mkSettled := func() *core.ShardedReplica {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 8})
		reps := core.ShardedCluster(2, shards, spec.CounterMap(), net, core.ClusterOptions{
			NewEngine: func() core.Engine { return core.NewUndoEngine() },
		})
		for k := 0; k < 2048; k++ {
			reps[0].Update(spec.AddKey{K: keys[k%len(keys)], N: 1})
		}
		net.Quiesce()
		return reps[0]
	}
	b.Run("settled", func(b *testing.B) {
		rep := mkSettled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.Query(spec.ReadAllCtrs{})
		}
	})
	b.Run("one-shard-dirty", func(b *testing.B) {
		rep := mkSettled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.Update(spec.AddKey{K: keys[0], N: 1})
			rep.Query(spec.ReadAllCtrs{})
		}
	})
	b.Run("all-shards-dirty", func(b *testing.B) {
		rep := mkSettled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < len(keys); s++ {
				rep.Update(spec.AddKey{K: keys[s], N: 1})
			}
			rep.Query(spec.ReadAllCtrs{})
		}
	})
}

// BenchmarkDeciders measures each consistency decider on the Figure 2
// history (the hardest of the paper's examples).
func BenchmarkDeciders(b *testing.B) {
	h := history.Fig2()
	deciders := map[string]func(*history.History) check.Result{
		"EC": check.EC, "SEC": check.SEC, "UC": check.UC,
		"SUC": check.SUC, "PC": check.PC, "SC": check.SC,
	}
	for name, fn := range deciders {
		fn := fn
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(h)
			}
		})
	}
}

// BenchmarkContendedUpdate (E20): in-process writer contention on one
// replica handle of a live 3-replica cluster. b.SetParallelism scales the
// writer goroutines per core; the reported ns/op is the issue cost, with
// the final transport drain folded into the timed region so no delivery
// work hides past the stop.
func BenchmarkContendedUpdate(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			net := transport.NewLive(3)
			defer net.Close()
			reps := core.Cluster(3, spec.Counter(), net, core.ClusterOptions{})
			b.SetParallelism(par)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					reps[0].Update(spec.Add{N: 1})
				}
			})
			net.Drain()
		})
	}
}

// BenchmarkShardedContendedUpdate (E20): the same contention shape on
// a 4-shard counter map — writers hash across shard lanes, but share the
// process's writer token, and every delivery to a process goes through
// its one dispatcher: it prices one send order and one FIFO stream per
// process link. The causal rows, at one and four shards, price the causal
// gate's one lock domain: a write step and a delivery there hold every
// shard's lock.
func BenchmarkShardedContendedUpdate(b *testing.B) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	for _, c := range []struct {
		name   string
		shards int
		causal bool
	}{{"", 4, false}, {"causal/shards=1/", 1, true}, {"causal/shards=4/", 4, true}} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%sparallelism=%d", c.name, par), func(b *testing.B) {
				benchShardedContended(b, keys, par, c.shards, c.causal)
			})
		}
	}
}

// benchShardedContended drives par writers through replica 0 of three
// counter-map replicas at the given shard count and level.
func benchShardedContended(b *testing.B, keys []string, par, shards int, causal bool) {
	net := transport.NewLive(3)
	defer net.Close()
	reps := core.ShardedCluster(3, shards, spec.CounterMap(), net, core.ClusterOptions{Causal: causal})
	var seq atomic.Uint64
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := seq.Add(1)
			reps[0].Update(spec.AddKey{K: keys[k%uint64(len(keys))], N: 1})
		}
	})
	net.Drain()
}

// BenchmarkWireQuery prices one query round trip through Dial against an
// in-process daemon holding a 1 000-element set: "Contains" is the keyed
// point query, "Elements" ships the whole set. Allocations count both
// ends, client and daemon, since they share the process.
func BenchmarkWireQuery(b *testing.B) {
	node, err := ListenAndServe(SetObject(), WireConfig{ID: 0, Peers: []string{"127.0.0.1:0"}})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	set := c.Handle()
	for i := 0; i < 1000; i++ {
		set.Insert(fmt.Sprintf("v%04d", i))
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Run("Contains", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !set.Contains("v0500") {
				b.Fatal("v0500 missing")
			}
		}
	})
	b.Run("Elements", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := len(set.Elements()); n != 1000 {
				b.Fatalf("%d elements, want 1000", n)
			}
		}
	})
}

// BenchmarkWireUpdate prices the streamed write path through Dial: one op
// is 10 000 Inserts written behind the caller, then the Flush barrier, so
// it covers the client's write-behind, the daemon's batched intake and
// its write steps. ns/update and allocs/update divide by the inserts;
// allocations count client and daemon, which share the process.
func BenchmarkWireUpdate(b *testing.B) {
	const perOp = 10000
	node, err := ListenAndServe(SetObject(), WireConfig{ID: 0, Peers: []string{"127.0.0.1:0"}})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	set := c.Handle()
	keys := make([]string, perOp)
	for i := range keys {
		keys[i] = fmt.Sprintf("v%05d", i)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			set.Insert(k)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	updates := float64(b.N * perOp)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/updates, "ns/update")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/updates, "allocs/update")
}
