package bench

import (
	"fmt"
	"io"
	"math/rand"
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

// MemRow is one line of the experiment E9 series: Algorithm 2's
// observation as the log policy (spec.Memory is spec.Masking) against the
// same spec with masking hidden, which logs every write as Algorithm 1
// does. Reads ask a register no cached output covers, so each one costs
// what its engine charges for a fresh state.
type MemRow struct {
	Ops            int
	MaskedWrite    time.Duration
	MaskedRead     time.Duration
	ReplayRead     time.Duration // unmasked, replay engine
	CheckpointRead time.Duration // unmasked, checkpoint engine
	MaskedLog      int
	UnmaskedLog    int
}

// KVShardRow is one shard of E9's overwrite-heavy kv run: the keys it
// owns and the longest live log any replica's copy of it held.
type KVShardRow struct {
	Shard, Keys, MaxLive int
}

// MemoryResult reports experiment E9.
type MemoryResult struct {
	Rows []MemRow
	KV   []KVShardRow
}

// unmaskedMemory is spec.Memory with its Masking capability hidden (the
// field shadows the promoted MaskKey method), so its replicas keep every
// write in the log.
type unmaskedMemory struct {
	spec.MemorySpec
	MaskKey struct{}
}

// MemoryExperiment compares Algorithm 2 against Algorithm 1 on the
// shared memory (§VII-C): the masking replica's log stays within twice
// the register count and its reads and writes stay flat, while the
// unmasked log grows with every write and its replay read with it. An
// overwrite-heavy kv run on two shards then shows the bound per shard.
func MemoryExperiment(w io.Writer, quickRun bool) MemoryResult {
	section(w, "E9", "Algorithm 2 (masking log) vs Algorithm 1 (every write logged)")
	var res MemoryResult
	t := newTable(w, "writes", "masked ns/write", "masked ns/read", "unmasked(replay) ns/read",
		"unmasked(ckpt) ns/read", "masked log", "unmasked log")
	opsList := []int{100, 1000, 5000}
	iters := 300
	if quickRun {
		opsList = []int{100, 1000}
		iters = 50
	}
	keys := []string{"a", "b", "c", "d"}
	reads := make([]spec.QueryInput, iters)
	for i := range reads {
		reads[i] = spec.ReadKey{K: fmt.Sprint("r", i)}
	}
	run := func(adt spec.UQADT, eng func() core.Engine, ops int) (write, read time.Duration, logLen int) {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
		reps := core.Cluster(2, adt, net, core.ClusterOptions{NewEngine: eng})
		start := time.Now()
		for k := 0; k < ops; k++ {
			reps[k%2].Update(spec.WriteKey{K: keys[k%len(keys)], V: fmt.Sprint(k)})
		}
		write = time.Since(start) / time.Duration(ops)
		net.Quiesce()
		i := 0
		read = timePerOp(iters, func() { reps[0].Query(reads[i]); i++ })
		return write, read, reps[0].Stats().LogLen
	}
	for _, ops := range opsList {
		row := MemRow{Ops: ops}
		row.MaskedWrite, row.MaskedRead, row.MaskedLog = run(spec.Memory("0"), nil, ops)
		_, row.ReplayRead, row.UnmaskedLog = run(unmaskedMemory{spec.Memory("0"), struct{}{}},
			func() core.Engine { return core.NewReplayEngine() }, ops)
		_, row.CheckpointRead, _ = run(unmaskedMemory{spec.Memory("0"), struct{}{}},
			func() core.Engine { return core.NewCheckpointEngine(64) }, ops)
		res.Rows = append(res.Rows, row)
		t.row(row.Ops, row.MaskedWrite.Nanoseconds(), row.MaskedRead.Nanoseconds(), row.ReplayRead.Nanoseconds(),
			row.CheckpointRead.Nanoseconds(), row.MaskedLog, row.UnmaskedLog)
	}
	t.flush()

	const kvWrites, kvKeys, kvShards = 10000, 16, 2
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5})
	reps := core.ShardedCluster(2, kvShards, spec.Memory(""), net, core.ClusterOptions{})
	res.KV = make([]KVShardRow, kvShards)
	for s := range res.KV {
		res.KV[s].Shard = s
	}
	for k := 0; k < kvKeys; k++ {
		res.KV[reps[0].ShardOf(fmt.Sprint("k", k))].Keys++
	}
	for k := 0; k < kvWrites; k++ {
		reps[k%2].Update(spec.WriteKey{K: fmt.Sprint("k", k%kvKeys), V: fmt.Sprint(k)})
		net.StepN(k % 3)
		for _, r := range reps {
			for s := range res.KV {
				res.KV[s].MaxLive = max(res.KV[s].MaxLive, r.Shard(s).Stats().LogLen)
			}
		}
	}
	fmt.Fprintf(w, "\nkv, %d writes over %d keys, %d shards:\n", kvWrites, kvKeys, kvShards)
	tk := newTable(w, "shard", "keys", "max live log")
	for _, row := range res.KV {
		tk.row(row.Shard, row.Keys, row.MaxLive)
	}
	tk.flush()
	fmt.Fprintf(w, "reading: the masking log stays within twice the register count, per shard too,\n")
	fmt.Fprintf(w, "and its reads stay flat; the unmasked log holds every write and its replay read grows\n")
	return res
}
