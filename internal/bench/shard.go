package bench

import (
	"fmt"
	"io"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// ShardRow is one line of the E14 shard-scaling series.
type ShardRow struct {
	// Shards is the shard count; Updates the total updates issued
	// across the cluster.
	Shards  int `json:"shards"`
	Updates int `json:"updates"`
	// UpdatesPerSec is end-to-end update throughput: issuance plus
	// delivery of every update to every replica under adversarial
	// (non-FIFO) ordering.
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// Speedup is UpdatesPerSec relative to the 1-shard row of the same
	// run.
	Speedup float64 `json:"speedup_vs_1_shard"`
	// LateInserts counts out-of-order arrivals at replica 0 — sharding
	// does not reduce how many arrive late, only how much each one
	// costs (the displaced suffix lives in one shard's log).
	LateInserts uint64 `json:"late_inserts"`
	// ReplayKeyedReadNs is the cost of a keyed read served by replaying
	// the owning shard's log (replay engine): the log behind one key
	// shrinks by the shard factor.
	ReplayKeyedReadNs float64 `json:"replay_keyed_read_ns"`
}

// ShardResult reports experiment E14.
type ShardResult struct {
	Rows []ShardRow `json:"rows"`
}

// shardKeyNames returns the key support for the scaling workload.
func shardKeyNames(keys int) []string {
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%02d", i)
	}
	return names
}

// ShardScaling (E14) measures what key-sharding buys on a partitionable
// type (the counter map): n processes issue a burst of updates over a
// key support, then the adversarial network delivers everything. With a
// single log per replica, each of the reorderings the adversary
// produces displaces a suffix of the whole log (undo+redo across every
// key); with S shards a late arrival displaces only its own shard's
// suffix, ~1/S of the entries — so end-to-end update throughput rises
// with the shard count even on one core, and keyed reads served by
// replay touch a log 1/S as long. The speedup column is the acceptance
// gate: ≥2x at 4 shards.
func ShardScaling(w io.Writer, quickRun bool, shardCounts []int) ShardResult {
	section(w, "E14", "key-sharded replicas: update throughput and keyed reads by shard count")
	const n = 3
	perProc, keys := 1200, 48
	if quickRun {
		perProc = 400
	}
	names := shardKeyNames(keys)
	var res ShardResult
	t := newTable(w, "shards", "updates", "updates/sec", "speedup", "late inserts", "replay keyed read ns")
	var base float64
	for _, shards := range shardCounts {
		row := shardScaleRun(n, shards, perProc, names)
		if base == 0 {
			base = row.UpdatesPerSec
		}
		row.Speedup = row.UpdatesPerSec / base
		res.Rows = append(res.Rows, row)
		t.row(row.Shards, row.Updates,
			fmt.Sprintf("%.0f", row.UpdatesPerSec),
			fmt.Sprintf("%.2fx", row.Speedup),
			row.LateInserts,
			fmt.Sprintf("%.0f", row.ReplayKeyedReadNs))
	}
	t.flush()
	fmt.Fprintf(w, "reading: the same number of messages arrive late either way, but each\n")
	fmt.Fprintf(w, "late arrival redoes only its own shard's suffix — cost divides by the\n")
	fmt.Fprintf(w, "shard count, so throughput scales without touching the per-shard guarantee\n")
	return res
}

// shardScaleRun executes one shard count: a burst of perProc updates
// per process with no interleaved delivery (the worst case for
// timestamp order — every remote arrival is late), then full
// adversarial delivery, timed end to end; then the keyed-read probe on
// a replay-engine cluster with the same converged logs.
func shardScaleRun(n, shards, perProc int, names []string) ShardRow {
	adt := spec.CounterMap()
	mkCluster := func(mk func() core.Engine) ([]*core.ShardedReplica, *transport.SimNetwork) {
		net := transport.NewSim(transport.SimOptions{N: n, Seed: 17})
		return core.ShardedCluster(n, shards, adt, net, core.ClusterOptions{NewEngine: mk}), net
	}

	// (a) update throughput, undo engine (the strongest single-log
	// baseline: O(1) in order, O(displaced suffix) when late).
	reps, net := mkCluster(func() core.Engine { return core.NewUndoEngine() })
	total := n * perProc
	start := time.Now()
	for k := 0; k < total; k++ {
		reps[k%n].Update(spec.AddKey{K: names[k%len(names)], N: 1})
	}
	net.Quiesce()
	elapsed := time.Since(start)

	// (b) keyed reads on replay: replaying only the owning shard's log.
	rreps, rnet := mkCluster(func() core.Engine { return core.NewReplayEngine() })
	for k := 0; k < total; k++ {
		rreps[k%n].Update(spec.AddKey{K: names[k%len(names)], N: 1})
	}
	rnet.Quiesce()
	iters := 200
	read := 0
	perRead := timePerOp(iters, func() {
		_ = rreps[0].Query(spec.ReadCtr{K: names[read%len(names)]})
		read++
	})

	return ShardRow{
		Shards:            shards,
		Updates:           total,
		UpdatesPerSec:     float64(total) / elapsed.Seconds(),
		LateInserts:       reps[0].Stats().LateInserts,
		ReplayKeyedReadNs: float64(perRead.Nanoseconds()),
	}
}
