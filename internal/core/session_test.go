package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

func TestSessionReadYourWrites(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	sess.Update(spec.Ins{V: "mine"})
	out, ok := sess.TryQuery(spec.Read{})
	if !ok {
		t.Fatalf("own replica must serve immediately")
	}
	if out.(spec.Elems).String() != "{mine}" {
		t.Fatalf("read-your-writes violated: %v", out)
	}
}

func TestSessionFailoverBlocksStaleReplica(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 2})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	sess.Update(spec.Ins{V: "x"})
	// Fail over before the broadcast reaches replica 1.
	sess.Switch(reps[1])
	if _, ok := sess.TryQuery(spec.Read{}); ok {
		t.Fatalf("stale replica served a session that wrote x")
	}
	net.Quiesce()
	out, ok := sess.TryQuery(spec.Read{})
	if !ok {
		t.Fatalf("caught-up replica must serve")
	}
	if out.(spec.Elems).String() != "{x}" {
		t.Fatalf("failover read wrong: %v", out)
	}
}

func TestSessionMonotonicReadsAcrossFailover(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 3})
	reps := ShardedCluster(3, 1, spec.Set(), net, ClusterOptions{})
	// Replica 2 issues an update; only replica 0 receives it yet.
	reps[2].Update(spec.Ins{V: "seen"})
	for net.Pending() > 1 {
		if !net.Step() {
			break
		}
	}
	// Find a replica that has the update and one that does not.
	var fresh, stale *ShardedReplica
	for _, r := range reps[:2] {
		if r.StateKey() == "{seen}" {
			fresh = r
		} else {
			stale = r
		}
	}
	if fresh == nil || stale == nil {
		t.Skip("delivery order did not split the replicas")
	}
	sess := NewShardedSession(fresh)
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatalf("fresh replica must serve")
	}
	// Monotonic reads: the stale replica must refuse the session.
	sess.Switch(stale)
	if _, ok := sess.TryQuery(spec.Read{}); ok {
		t.Fatalf("session read went backwards")
	}
	net.Quiesce()
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatalf("converged replica must serve")
	}
}

func TestSessionWithCompactedReplica(t *testing.T) {
	// Coverage must account for the compacted prefix: a replica whose
	// log was GC'd still covers sessions that observed old updates.
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 4, FIFO: true})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 4})
	sess := NewShardedSession(reps[0])
	for k := 0; k < 30; k++ {
		sess.Update(spec.Ins{V: fmt.Sprint(k % 3)})
		net.StepN(3)
	}
	net.Quiesce()
	reps[1].ForceCompact()
	if reps[1].Stats().Compacted == 0 {
		t.Fatalf("test needs a compacted target replica")
	}
	sess.Switch(reps[1])
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatalf("compacted replica wrongly refused a covered session")
	}
}

// TestQuickSessionNeverReadsBackwards: under arbitrary schedules and
// failovers, every successful session read is served by a replica
// whose per-origin coverage dominates the coverage of the previous
// successful read — the session never observes a past that "forgot"
// an update it saw. (Total op counts are NOT monotone across failover:
// a covering replica may lack updates the session never observed.)
func TestQuickSessionNeverReadsBackwards(t *testing.T) {
	f := func(seed int64) bool {
		const n = 3
		net := transport.NewSim(transport.SimOptions{N: n, Seed: seed})
		reps := ShardedCluster(n, 1, spec.Counter(), net, ClusterOptions{})
		rng := rand.New(rand.NewSource(seed))
		sess := NewShardedSession(reps[0])
		var prevCov []uint64
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0:
				reps[rng.Intn(n)].Update(spec.Add{N: 1})
			case 1:
				sess.Update(spec.Add{N: 1})
			case 2:
				net.StepN(rng.Intn(3))
			case 3:
				target := reps[rng.Intn(n)]
				sess.Switch(target)
				if _, ok := sess.TryQuery(spec.Read{}); ok {
					cov := target.Shard(0).Coverage()
					for j := range prevCov {
						if cov[j] < prevCov[j] {
							return false
						}
					}
					prevCov = cov
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionQueryRidesCache(t *testing.T) {
	// A covered session read of a settled replica must be served by the
	// query-output cache (no state walk) and allocate nothing.
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 9})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
	})
	sess := NewShardedSession(reps[0])
	for k := 0; k < 50; k++ {
		sess.Update(spec.Ins{V: fmt.Sprint(k % 9)})
	}
	net.Quiesce()
	if _, ok := sess.TryQuery(spec.Read{}); !ok {
		t.Fatalf("settled own replica must cover the session")
	}
	hits0, _ := reps[0].QueryCacheStats()
	const reads = 32
	for i := 0; i < reads; i++ {
		if _, ok := sess.TryQuery(spec.Read{}); !ok {
			t.Fatalf("read %d refused", i)
		}
	}
	hits, _ := reps[0].QueryCacheStats()
	if hits-hits0 != reads {
		t.Fatalf("session reads bypassed the cache: %d hits for %d reads", hits-hits0, reads)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := sess.TryQuery(spec.Read{}); !ok {
			t.Fatalf("covered read refused")
		}
	}); allocs != 0 {
		t.Fatalf("covered session read allocates: %v allocs/op", allocs)
	}
}

func TestShardedSessionReadYourWrites(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 11})
	reps := ShardedCluster(2, 4, spec.CounterMap(), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	sess.Update(spec.AddKey{K: "mine", N: 3})
	out, ok := sess.TryQuery(spec.ReadCtr{K: "mine"})
	if !ok {
		t.Fatalf("own replica must serve immediately")
	}
	if out.(spec.CtrVal) != 3 {
		t.Fatalf("read-your-writes violated: %v", out)
	}
	// The whole-state read too: every lane is covered locally.
	if _, ok := sess.TryQuery(spec.ReadAllCtrs{}); !ok {
		t.Fatalf("own replica must serve the whole-state read")
	}
}

func TestShardedSessionFailoverBlocksStaleReplica(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 12})
	reps := ShardedCluster(2, 4, spec.CounterMap(), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	sess.Update(spec.AddKey{K: "x", N: 1})
	sess.Switch(reps[1])
	// The keyed read and the whole-state read must both refuse the
	// replica that has not seen the session's write.
	if _, ok := sess.TryQuery(spec.ReadCtr{K: "x"}); ok {
		t.Fatalf("stale replica served a keyed session read")
	}
	if _, ok := sess.TryQuery(spec.ReadAllCtrs{}); ok {
		t.Fatalf("stale replica served a whole-state session read")
	}
	if sess.Covered() {
		t.Fatalf("Covered must report the stale replica")
	}
	net.Quiesce()
	out, ok := sess.TryQuery(spec.ReadCtr{K: "x"})
	if !ok || out.(spec.CtrVal) != 1 {
		t.Fatalf("caught-up replica must serve: %v %v", out, ok)
	}
	if !sess.Covered() {
		t.Fatalf("caught-up replica must report covered")
	}
}

func TestShardedSessionKeyedReadChecksOnlyOwningShard(t *testing.T) {
	// A keyed session read must not be blocked by staleness on OTHER
	// shards: coverage is per lane. Write two keys owned by different
	// shards through the session, deliver only one shard's broadcast,
	// and check the delivered key is readable on the other replica while
	// the undelivered one refuses.
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 13})
	reps := ShardedCluster(2, 8, spec.CounterMap(), net, ClusterOptions{})
	var a, b string
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if a == "" {
			a = k
			continue
		}
		if reps[0].ShardOf(k) != reps[0].ShardOf(a) {
			b = k
			break
		}
	}
	sess := NewShardedSession(reps[0])
	sess.Update(spec.AddKey{K: a, N: 1})
	sess.Update(spec.AddKey{K: b, N: 1})
	// Deliver everything, then issue one more update to b's shard that
	// stays in flight.
	net.Quiesce()
	sess.Update(spec.AddKey{K: b, N: 1})
	sess.Switch(reps[1])
	if _, ok := sess.TryQuery(spec.ReadCtr{K: a}); !ok {
		t.Fatalf("keyed read of a covered shard refused because another shard is stale")
	}
	if _, ok := sess.TryQuery(spec.ReadCtr{K: b}); ok {
		t.Fatalf("stale shard served its keyed read")
	}
	if _, ok := sess.TryQuery(spec.ReadAllCtrs{}); ok {
		t.Fatalf("whole-state read served while one lane is stale")
	}
	net.Quiesce()
	if _, ok := sess.TryQuery(spec.ReadAllCtrs{}); !ok {
		t.Fatalf("settled replica must serve the whole-state read")
	}
}

func TestShardedSessionSwitchShardCountMismatchPanics(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 14})
	a := ShardedCluster(2, 2, spec.CounterMap(), net, ClusterOptions{})
	net2 := transport.NewSim(transport.SimOptions{N: 2, Seed: 14})
	b := ShardedCluster(2, 4, spec.CounterMap(), net2, ClusterOptions{})
	sess := NewShardedSession(a[0])
	defer func() {
		if recover() == nil {
			t.Fatalf("Switch across shard counts must panic")
		}
	}()
	sess.Switch(b[0])
}

func TestUpdateTimestampedMatchesLog(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 0})
	r := NewReplica(Config{ID: 0, N: 1, ADT: spec.Set(), Net: net})
	ts := r.UpdateTimestamped(spec.Ins{V: "a"})
	entries := r.log.Entries()
	if len(entries) != 1 || entries[0].TS != ts {
		t.Fatalf("returned timestamp %v does not match log %v", ts, entries)
	}
}
