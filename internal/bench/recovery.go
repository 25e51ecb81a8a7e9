package bench

import (
	"fmt"
	"io"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// RecoveryResult reports experiment E18: repairing a replica that
// missed a long one-sided burst, by transport backlog redelivery vs
// one anti-entropy digest exchange.
type RecoveryResult struct {
	Updates int
	// Partition variant: the minority side misses Updates broadcasts.
	// Redelivery drains the queued backlog through the adversary one
	// message at a time; anti-entropy pulls the whole missing suffix in
	// a single digest exchange per peer.
	RedeliverySteps int
	RedeliveryMs    float64
	AntiEntropyMs   float64
	SyncApplied     uint64
	// DupDropped counts the queued backlog arriving after the sync
	// already landed every entry: all of it is absorbed as duplicates,
	// none of it double-applies.
	DupDropped uint64
	// Speedup is RedeliveryMs / AntiEntropyMs: how much faster the
	// digest exchange reaches convergence than draining the backlog.
	Speedup float64
	// Crash variant: a crashed replica's inbound messages are dropped,
	// not queued, so after recovery there is nothing to redeliver —
	// CrashMissing entries are simply gone from its log until the
	// digest exchange lands them in CrashRepairMs.
	CrashMissing  uint64
	CrashRepairMs float64
	// Two-sided variant: both sides of the cut write, so every reply
	// interleaves with a live log (the one-sided runs above sync into
	// empty logs and land everything at the tail). One row per size;
	// NsPerEntry flat across sizes is what a linear repair looks like.
	TwoSided []TwoSidedRow
}

// TwoSidedRow is one size of E18's two-sided variant.
type TwoSidedRow struct {
	Updates    int
	Applied    int
	RepairMs   float64
	NsPerEntry float64
}

// twoSidedSizes are the update counts of the two-sided rows.
var twoSidedSizes = []int{10000, 40000, 160000}

// twoSidedCut builds a healed-but-unrepaired 3-process set cluster:
// {0} was cut from {1, 2} while all three wrote round-robin, each side
// is internally up to date, and the cut's backlog is still queued.
func twoSidedCut(updates int) []*core.Replica {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 18})
	reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{})
	net.Partition([]int{0}, []int{1, 2})
	for i := 0; i < updates; i++ {
		reps[i%3].Update(spec.Ins{V: fmt.Sprint(i % 97)})
	}
	net.Quiesce()
	net.Heal()
	return reps
}

// hubRepair runs the anti-entropy round Cluster.Heal runs — replica 0
// pulls from every peer, then every peer pulls from it — and returns
// how many entries the pulls landed.
func hubRepair(reps []*core.Replica) int {
	applied := 0
	for pass := 0; pass < 2; pass++ {
		for _, peer := range reps[1:] {
			dst, src := reps[0], peer
			if pass == 1 {
				dst, src = src, dst
			}
			n, err := dst.SyncFrom(src)
			if err != nil {
				panic(fmt.Sprintf("bench E18: two-sided repair failed: %v", err))
			}
			applied += n
		}
	}
	return applied
}

// Recovery (E18) measures time-to-convergence after a long one-sided
// fault, with and without anti-entropy. A 3-process set cluster
// partitions {0} | {1, 2}; replica 0 issues the whole burst, so the
// majority side misses everything. Repair A heals and drains the
// queued backlog through the adversary (redelivery). Repair B heals
// and runs one digest exchange per peer (anti-entropy), reaching
// convergence before a single queued message is delivered; the backlog
// then drains entirely into duplicate drops. The crash variant shows
// why the digest path is load-bearing rather than a fast path: a
// crashed replica's inbound messages were dropped, so redelivery alone
// never converges — the digest exchange is the only way back.
func Recovery(w io.Writer, quickRun bool) RecoveryResult {
	section(w, "E18", "recovery after a long fault: backlog redelivery vs anti-entropy digest sync")
	updates := 10000
	if quickRun {
		updates = 2000
	}
	res := RecoveryResult{Updates: updates}

	// Both partition runs build the identical cluster and workload from
	// the same seed; timestamps are fixed at issue time, so both repair
	// paths must land on the identical state.
	build := func() ([]*core.Replica, *transport.SimNetwork) {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: 18})
		reps := core.Cluster(3, spec.Set(), net, core.ClusterOptions{})
		net.Partition([]int{0}, []int{1, 2})
		for i := 0; i < updates; i++ {
			reps[0].Update(spec.Ins{V: fmt.Sprint(i % 97)})
		}
		net.Quiesce() // nothing crosses the cut; the backlog queues
		return reps, net
	}

	// Repair A: heal, then redeliver the queued backlog.
	reps, net := build()
	before := net.Stats().Delivered
	start := time.Now()
	net.Heal()
	net.Quiesce()
	res.RedeliveryMs = float64(time.Since(start).Microseconds()) / 1000
	res.RedeliverySteps = int(net.Stats().Delivered - before)
	if reps[1].StateKey() != reps[0].StateKey() || reps[2].StateKey() != reps[0].StateKey() {
		panic("bench E18: redelivery repair did not converge")
	}

	// Repair B: heal, then one digest exchange per peer. Convergence is
	// asserted before the backlog drains — the sync alone repairs the
	// partition — and the drain afterwards must be all duplicates.
	reps, net = build()
	net.Heal()
	start = time.Now()
	for _, p := range []int{1, 2} {
		applied, err := reps[p].SyncFrom(reps[0])
		if err != nil {
			panic(fmt.Sprintf("bench E18: sync repair failed: %v", err))
		}
		res.SyncApplied += uint64(applied)
	}
	res.AntiEntropyMs = float64(time.Since(start).Microseconds()) / 1000
	if reps[1].StateKey() != reps[0].StateKey() || reps[2].StateKey() != reps[0].StateKey() {
		panic("bench E18: anti-entropy repair did not converge")
	}
	net.Quiesce()
	res.DupDropped = reps[1].Stats().DupDropped + reps[2].Stats().DupDropped
	if res.AntiEntropyMs > 0 {
		res.Speedup = res.RedeliveryMs / res.AntiEntropyMs
	}

	// Crash variant: inbound messages to a crashed replica are dropped,
	// not queued. After recovery the network is already quiescent —
	// redelivery has nothing to offer — and only the digest exchange
	// closes the gap.
	cnet := transport.NewSim(transport.SimOptions{N: 3, Seed: 19})
	creps := core.Cluster(3, spec.Set(), cnet, core.ClusterOptions{})
	cnet.Crash(2)
	for i := 0; i < updates; i++ {
		creps[i%2].Update(spec.Ins{V: fmt.Sprint(i % 97)})
	}
	cnet.Quiesce()
	cnet.Recover(2)
	cnet.Quiesce() // nothing pending for p2: redelivery alone cannot repair it
	res.CrashMissing = uint64(creps[0].Stats().LogLen - creps[2].Stats().LogLen)
	if res.CrashMissing == 0 {
		panic("bench E18: crash variant lost nothing — crash drops are not biting")
	}
	start = time.Now()
	if _, err := creps[2].SyncFrom(creps[0]); err != nil {
		panic(fmt.Sprintf("bench E18: crash repair failed: %v", err))
	}
	res.CrashRepairMs = float64(time.Since(start).Microseconds()) / 1000
	if creps[2].StateKey() != creps[0].StateKey() {
		panic("bench E18: crash repair did not converge")
	}

	// Two-sided variant. The largest size is dropped from quick runs.
	sizes := twoSidedSizes
	if quickRun {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		treps := twoSidedCut(n)
		start = time.Now()
		applied := hubRepair(treps)
		elapsed := time.Since(start)
		if treps[1].StateKey() != treps[0].StateKey() || treps[2].StateKey() != treps[0].StateKey() {
			panic("bench E18: two-sided repair did not converge")
		}
		res.TwoSided = append(res.TwoSided, TwoSidedRow{
			Updates: n, Applied: applied,
			RepairMs:   float64(elapsed.Microseconds()) / 1000,
			NsPerEntry: float64(elapsed.Nanoseconds()) / float64(applied),
		})
	}

	t := newTable(w, "repair path", "converged after", "steps", "notes")
	t.row("redelivery (heal+drain)", fmt.Sprintf("%.2f ms", res.RedeliveryMs),
		res.RedeliverySteps, "every missed broadcast re-walked through the adversary")
	t.row("anti-entropy (heal+sync)", fmt.Sprintf("%.2f ms", res.AntiEntropyMs),
		2, fmt.Sprintf("%d entries landed by 2 digest pulls", res.SyncApplied))
	t.row("crash+redelivery", "never", 0,
		fmt.Sprintf("%d dropped entries are not in any queue", res.CrashMissing))
	t.row("crash+anti-entropy", fmt.Sprintf("%.2f ms", res.CrashRepairMs),
		1, "recovered replica pulls the suffix it missed")
	t.flush()
	tt := newTable(w, "two-sided cut, updates", "repair", "entries landed", "ns per landed entry")
	for _, row := range res.TwoSided {
		tt.row(row.Updates, fmt.Sprintf("%.2f ms", row.RepairMs), row.Applied, fmt.Sprintf("%.0f", row.NsPerEntry))
	}
	tt.flush()
	fmt.Fprintf(w, "two-sided: every reply interleaves with a live log; one sorted merge per pull\n")
	fmt.Fprintf(w, "keeps the cost per landed entry flat as the logs grow (reported, not asserted)\n")
	fmt.Fprintf(w, "speedup: anti-entropy reaches convergence %.1fx faster than backlog redelivery\n", res.Speedup)
	fmt.Fprintf(w, "late backlog: %d redelivered messages absorbed as duplicates, zero double-applies\n", res.DupDropped)
	fmt.Fprintf(w, "reading: redelivery replays each missed broadcast as its own delivery step;\n")
	fmt.Fprintf(w, "the digest exchange ships the missing suffix wholesale, and is the only\n")
	fmt.Fprintf(w, "repair that works at all when the loss was a crash (drops, not queues)\n")
	return res
}
