package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// WritersRow is one line of E20: one (writers, engine) cell measuring
// in-process writer contention on a single replica handle.
type WritersRow struct {
	Writers int `json:"writers"`
	// Engine is "mutex" or "lockfree".
	Engine string `json:"engine"`
	Ops    int    `json:"ops"`
	// OpsPerSec is issued updates per second, wall clock from the first
	// update to the last delivery draining (the broadcasts the drain
	// batches are part of the work, not an epilogue).
	OpsPerSec float64 `json:"ops_per_sec"`
	// Speedup is this row's OpsPerSec over the mutex row at the same
	// writer count.
	Speedup float64 `json:"speedup"`
	// Batches and MaxBatch expose the lock-free engine's helping: folds
	// that completed more than one writer's operation under one drain
	// token (zero for the mutex engine).
	Batches  uint64 `json:"batches,omitempty"`
	MaxBatch uint64 `json:"max_batch,omitempty"`
}

// WritersResult reports experiment E20.
type WritersResult struct {
	Rows []WritersRow `json:"rows"`
	// Speedup4 is the headline acceptance number: lock-free ops/sec over
	// mutex ops/sec at 4 concurrent writers per replica.
	Speedup4 float64 `json:"speedup_4_writers"`
}

// contendedRun drives totalOps counter increments through replica 0 of
// a 5-replica live cluster from `writers` goroutines and returns the
// wall-clock duration until every broadcast has drained, plus the
// replica's intake stats. One replica takes all the writes — E20
// measures ingestion contention inside one node, not cluster scaling —
// but the cluster size still matters to the result: every update is
// broadcast to all peers, so more peers means more per-operation
// transport work for the batching drain to amortize.
func contendedRun(writers, totalOps int, lockfree bool) (time.Duration, core.IntakeStats) {
	const n = 5
	net := transport.NewLive(n)
	defer net.Close()
	reps := core.Cluster(n, spec.Counter(), net, core.ClusterOptions{LockFree: lockfree})

	perWriter := totalOps / writers
	var start sync.WaitGroup
	var done sync.WaitGroup
	start.Add(1)
	done.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < perWriter; i++ {
				reps[0].Update(spec.Add{N: 1})
			}
		}()
	}
	t0 := time.Now()
	start.Done()
	done.Wait()
	for _, rep := range reps {
		rep.FlushIntake()
	}
	net.Drain()
	return time.Since(t0), reps[0].IntakeStats()
}

// Writers (E20) measures single-replica update throughput under
// in-process writer contention: 1/2/4/8 goroutines hammering one
// replica handle, mutex engine versus the lock-free intake/drain engine
// (core.Config.LockFree, public updatec.WithLockFreeWriters). The
// lock-free engine wins by doing less per operation, not by spinning
// harder: announcing is one fetch-add plus one atomic store, and the
// drain runs the write step on whole batches: a single lock hold, a
// single batched clock reservation, a single payload allocation.
func Writers(w io.Writer, quickRun bool) WritersResult {
	section(w, "E20", "contended writers: single-replica ops/sec, mutex vs lock-free engine")
	totalOps := 200_000
	if quickRun {
		totalOps = 40_000
	}
	var res WritersResult
	t := newTable(w, "writers", "engine", "ops", "ops/sec", "speedup", "batches", "max batch")
	for _, writers := range []int{1, 2, 4, 8} {
		var mutexBase float64
		for _, engine := range []string{"mutex", "lockfree"} {
			lockfree := engine == "lockfree"
			// One warmup pass keeps scheduler/allocator noise out of the
			// measured run at quick sizes.
			contendedRun(writers, totalOps/10, lockfree)
			elapsed, st := contendedRun(writers, totalOps, lockfree)
			row := WritersRow{
				Writers:   writers,
				Engine:    engine,
				Ops:       totalOps,
				OpsPerSec: float64(totalOps) / elapsed.Seconds(),
				Batches:   st.Batches,
				MaxBatch:  st.MaxBatch,
			}
			if !lockfree {
				mutexBase = row.OpsPerSec
			} else if mutexBase > 0 {
				row.Speedup = row.OpsPerSec / mutexBase
				if writers == 4 {
					res.Speedup4 = row.Speedup
				}
			}
			res.Rows = append(res.Rows, row)
			t.row(fmt.Sprintf("%d", writers), engine, fmt.Sprintf("%d", row.Ops),
				fmt.Sprintf("%.0f", row.OpsPerSec), fmt.Sprintf("%.2fx", row.Speedup),
				fmt.Sprintf("%d", row.Batches), fmt.Sprintf("%d", row.MaxBatch))
		}
	}
	t.flush()
	fmt.Fprintf(w, "lock-free speedup at 4 writers: %.2fx\n", res.Speedup4)
	return res
}
