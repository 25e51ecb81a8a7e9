package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"updatec/internal/clock"
	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// timePerOp runs f iters times and returns the per-iteration duration.
func timePerOp(iters int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return time.Since(start) / time.Duration(iters)
}

// MsgRow is one line of the message-overhead series (E8a).
type MsgRow struct {
	Updates        int
	Broadcasts     uint64
	BytesPerUpdate float64
}

// EngineRow is one line of the query-cost series (E8b). Every figure
// is the cost of one State() between two arrivals.
type EngineRow struct {
	LogLen   int
	Engine   string
	PerQuery time.Duration
	// PerQueryLate is the query cost when 10% of the arrivals — in the
	// preloaded log and between the timed queries — sort up to 64
	// entries below the log's tail; PerQueryAllLate when every arrival
	// between the timed queries does, so each read follows a late
	// insert.
	PerQueryLate    time.Duration
	PerQueryAllLate time.Duration
}

// GCRow is one line of the log-growth series (E8c).
type GCRow struct {
	Ops              int
	LiveNoGC, LiveGC int
	Compacted        uint64
}

// ComplexityResult reports experiment E8.
type ComplexityResult struct {
	Msg     []MsgRow
	Engines []EngineRow
	GC      []GCRow
}

// Complexity measures the §VII-C complexity claims: (a) exactly one
// broadcast per update with a compact, slowly growing message; (b) the
// naive replay query cost grows linearly with the log while the
// checkpoint and undo engines stay flat; (c) stability GC bounds the
// live log under steady traffic.
func Complexity(w io.Writer, quickRun bool) ComplexityResult {
	section(w, "E8", "§VII-C complexity: messages, query engines, log GC")
	var res ComplexityResult

	// (a) message overhead.
	fmt.Fprintf(w, "\n(a) network cost per update (Algorithm 1, n=3)\n")
	ta := newTable(w, "updates", "broadcasts", "payload bytes/update")
	counts := []int{10, 1000, 100000}
	if quickRun {
		counts = []int{10, 1000}
	}
	for _, count := range counts {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: 1})
		reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{})
		for k := 0; k < count; k++ {
			reps[k%3].Update(spec.Ins{V: "ab"})
			if k%64 == 0 {
				net.Quiesce()
			}
		}
		net.Quiesce()
		st := net.Stats()
		row := MsgRow{
			Updates:        count,
			Broadcasts:     st.Broadcasts,
			BytesPerUpdate: float64(st.Bytes) / float64(st.Sends),
		}
		res.Msg = append(res.Msg, row)
		ta.row(row.Updates, row.Broadcasts, fmt.Sprintf("%.2f", row.BytesPerUpdate))
	}
	ta.flush()
	fmt.Fprintf(w, "reading: one broadcast per update; bytes grow only with log(clock)\n")

	// (b) query engines.
	fmt.Fprintf(w, "\n(b) query cost by engine and log length\n")
	tb := newTable(w, "log length", "engine", "ns/query (in-order)", "ns/query (10% late)", "ns/query (all late)")
	lengths := []int{64, 512, 4096}
	queryIters := 200
	if quickRun {
		lengths = []int{64, 512}
		queryIters = 50
	}
	// plain hides the set's Undoable implementation: a spec that cannot
	// undo, for which replicas pick the checkpoint engine. The wrapper
	// costs a second dynamic dispatch per call, so its rows compare with
	// each other, not with the bare set's.
	plain := struct{ spec.UQADT }{spec.Set()}
	for _, length := range lengths {
		for _, e := range []struct {
			name string
			adt  spec.UQADT
			mk   func() core.Engine
		}{
			{"undo", spec.Set(), func() core.Engine { return core.NewUndoEngine() }},
			{"replay", spec.Set(), func() core.Engine { return core.NewReplayEngine() }},
			{"replay (plain spec)", plain, func() core.Engine { return core.NewReplayEngine() }},
			{"checkpoint(64)", spec.Set(), func() core.Engine { return core.NewCheckpointEngine(64) }},
			{"checkpoint(64) (plain spec)", plain, func() core.Engine { return core.NewCheckpointEngine(64) }},
		} {
			row := EngineRow{
				LogLen: length, Engine: e.name,
				PerQuery:        engineQueryCost(e.adt, e.mk(), length, 0, queryIters),
				PerQueryLate:    engineQueryCost(e.adt, e.mk(), length, 10, queryIters),
				PerQueryAllLate: engineQueryCost(e.adt, e.mk(), length, 100, queryIters),
			}
			res.Engines = append(res.Engines, row)
			tb.row(row.LogLen, row.Engine, row.PerQuery.Nanoseconds(),
				row.PerQueryLate.Nanoseconds(), row.PerQueryAllLate.Nanoseconds())
		}
	}
	tb.flush()
	fmt.Fprintf(w, "reading: replay grows linearly with the log; undo (the default) and checkpoint (the\n")
	fmt.Fprintf(w, "default for a spec that cannot undo) stay flat, late arrivals or not\n")

	// (c) garbage collection.
	fmt.Fprintf(w, "\n(c) live log length with and without stability GC (n=3, FIFO)\n")
	tc := newTable(w, "updates", "live log (no GC)", "live log (GC)", "compacted")
	opsList := []int{300, 3000}
	if quickRun {
		opsList = []int{300}
	}
	for _, ops := range opsList {
		run := func(gc bool) (int, uint64) {
			net := transport.NewSim(transport.SimOptions{N: 3, Seed: 2, FIFO: true})
			reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{GC: gc, GCEvery: 16})
			for k := 0; k < ops; k++ {
				reps[k%3].Update(spec.Ins{V: fmt.Sprint(k % 7)})
				net.StepN(4)
			}
			net.Quiesce()
			reps[0].ForceCompact()
			st := reps[0].Stats()
			return st.LogLen, st.Compacted
		}
		noGC, _ := run(false)
		withGC, compacted := run(true)
		row := GCRow{Ops: ops, LiveNoGC: noGC, LiveGC: withGC, Compacted: compacted}
		res.GC = append(res.GC, row)
		tc.row(row.Ops, row.LiveNoGC, row.LiveGC, row.Compacted)
	}
	tc.flush()
	fmt.Fprintf(w, "reading: without GC the log holds every update ever issued\n")
	return res
}

// engineQueryCost builds a log of the given length (latePct percent of
// entries delivered out of order), checks the engine against a plain
// replay of it, then times State() evaluations interleaved with single
// arrivals (the steady-state query pattern), latePct percent of which
// sort up to 64 entries below the tail.
func engineQueryCost(adt spec.UQADT, eng core.Engine, length, latePct, iters int) time.Duration {
	log := core.NewLog(adt)
	eng.Bind(adt, log)
	rng := rand.New(rand.NewSource(9))
	// Deliver `length` entries; latePct% of them arrive displaced.
	// Preloaded and tail entries carry even clocks, so a late arrival
	// always finds a free odd clock right under the entry it displaces.
	perm := make([]int, length)
	for i := range perm {
		perm[i] = i
	}
	for i := range perm {
		if rng.Intn(100) < latePct {
			j := rng.Intn(length)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	insert := func(cl uint64, proc, v int) {
		at := log.Insert(core.Entry{
			TS: clock.Timestamp{Clock: cl, Proc: proc},
			U:  spec.Ins{V: fmt.Sprint(v % 5)},
		})
		eng.Inserted(at)
	}
	for _, p := range perm {
		insert(uint64(2*(p+1)), 0, p)
	}
	if got, want := adt.KeyState(eng.State()), adt.KeyState(log.Replay()); got != want {
		panic(fmt.Sprintf("bench: engine %s computed %s, a replay of the same log %s", eng.Name(), got, want))
	}
	next := length + 1
	return timePerOp(iters, func() {
		_ = eng.State()
		if rng.Intn(100) < latePct {
			// Proc next is unique, so two late arrivals displacing the
			// same entry still carry distinct timestamps.
			entries := log.Entries()
			depth := 1 + rng.Intn(min(64, len(entries)))
			insert(entries[len(entries)-depth].TS.Clock-1, next, next)
		} else {
			insert(uint64(2*next), 0, next)
		}
		next++
	})
}

// MemRow is one line of the experiment E9 series.
type MemRow struct {
	Ops            int
	Alg2Read       time.Duration
	GenericRead    time.Duration
	CheckpointRead time.Duration
	Alg2Cells      int
	GenericLog     int
}

// MemoryResult reports experiment E9.
type MemoryResult struct{ Rows []MemRow }

// MemoryExperiment compares Algorithm 2 against the generic Algorithm 1
// memory: read latency as the write history grows, and the storage
// each needs. Algorithm 2 reads are O(1) and its memory is bounded by
// the register count; the generic construction replays (or
// checkpoints) an ever-growing log.
func MemoryExperiment(w io.Writer, quickRun bool) MemoryResult {
	section(w, "E9", "Algorithm 2 memory vs generic Algorithm 1 memory")
	var res MemoryResult
	t := newTable(w, "writes", "alg2 ns/read", "generic(replay) ns/read",
		"generic(ckpt) ns/read", "alg2 cells", "generic log")
	opsList := []int{100, 1000, 5000}
	iters := 300
	if quickRun {
		opsList = []int{100, 1000}
		iters = 50
	}
	keys := []string{"a", "b", "c", "d"}
	for _, ops := range opsList {
		// Algorithm 2.
		netA := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		memA := core.NewMemory(core.MemoryConfig{ID: 0, Init: "0", Net: netA})
		core.NewMemory(core.MemoryConfig{ID: 1, Init: "0", Net: netA})
		for k := 0; k < ops; k++ {
			memA.Write(keys[k%len(keys)], fmt.Sprint(k))
		}
		netA.Quiesce()
		alg2 := timePerOp(iters, func() { memA.Read("a") })

		// Generic Algorithm 1 over spec.Memory, replay and checkpoint.
		generic := func(mk func() core.Engine) (time.Duration, int) {
			netB := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
			reps := core.Cluster(2, spec.Memory("0"), netB, core.ClusterOptions{NewEngine: mk})
			for k := 0; k < ops; k++ {
				reps[0].Update(spec.WriteKey{K: keys[k%len(keys)], V: fmt.Sprint(k)})
			}
			netB.Quiesce()
			d := timePerOp(iters, func() { reps[0].Query(spec.ReadKey{K: "a"}) })
			return d, reps[0].Stats().LogLen
		}
		replayRead, logLen := generic(func() core.Engine { return core.NewReplayEngine() })
		ckptRead, _ := generic(func() core.Engine { return core.NewCheckpointEngine(64) })

		row := MemRow{
			Ops: ops, Alg2Read: alg2, GenericRead: replayRead,
			CheckpointRead: ckptRead, Alg2Cells: memA.CellCount(), GenericLog: logLen,
		}
		res.Rows = append(res.Rows, row)
		t.row(row.Ops, row.Alg2Read.Nanoseconds(), row.GenericRead.Nanoseconds(),
			row.CheckpointRead.Nanoseconds(), row.Alg2Cells, row.GenericLog)
	}
	t.flush()
	fmt.Fprintf(w, "reading: alg2 reads stay O(1) and cells stay at the register count;\n")
	fmt.Fprintf(w, "the generic replay read grows with the op count (checkpointing flattens it)\n")
	return res
}

// PerfRow is one micro-benchmark result of the read-path experiment
// (E15, read.go); the JSON shape is what ucbench -json emits.
type PerfRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// measure times iters calls of f on one goroutine and attributes the
// allocation delta to them. It is a deliberately simple harness — the
// go test -bench suite in bench_test.go and ucperf are the precise
// instruments.
func measure(name string, iters int, f func()) PerfRow {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	return PerfRow{
		Name:        name,
		NsPerOp:     float64(dur.Nanoseconds()) / float64(iters),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(iters),
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iters),
	}
}

// AllResults aggregates the machine-readable results of every
// experiment (ucbench -json serializes the whole set into the
// BENCH_ucbench.json trajectory).
type AllResults struct {
	Figures     FiguresResult
	Prop1       Prop1Result
	Prop2       Prop2Result
	Prop3       Prop3Result
	Prop4       Prop4Result
	Sets        []SetsResult
	Complexity  ComplexityResult
	Memory      MemoryResult
	Partition   PartitionResult
	Latency     LatencyResult
	Join        JoinResult
	ReadMostly  ReadMostlyResult
	StepBacklog StepBacklogResult
}

// All runs every experiment in order.
func All(w io.Writer, quickRun bool) AllResults {
	var res AllResults
	res.Figures = Figures(w)
	res.Prop1 = Proposition1(w)
	runs := 400
	if quickRun {
		runs = 100
	}
	res.Prop2 = Proposition2(w, runs)
	res.Prop3 = Proposition3(w, runs/4)
	res.Prop4 = Proposition4(w)
	res.Sets = SetCaseStudy(w)
	res.Complexity = Complexity(w, quickRun)
	res.Memory = MemoryExperiment(w, quickRun)
	res.Partition = PartitionHeal(w)
	res.Latency = ConvergenceLatency(w)
	res.Join = StateTransfer(w)
	res.ReadMostly = ReadMostly(w, quickRun)
	res.StepBacklog = StepBacklog(w, quickRun)
	return res
}
