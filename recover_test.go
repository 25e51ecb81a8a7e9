package updatec

import (
	"fmt"
	"strings"
	"testing"
)

// TestCrashRecoverContract: the crash set is exact, so both calls
// reject ids that would make it lie.
func TestCrashRecoverContract(t *testing.T) {
	cluster, _, err := New(3, SetObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(3); err == nil {
		t.Fatal("Crash out of range must error")
	}
	if err := cluster.Crash(-1); err == nil {
		t.Fatal("Crash out of range must error")
	}
	if err := cluster.Recover(1); err == nil {
		t.Fatal("Recover of a live replica must error")
	}
	if err := cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(1); err == nil {
		t.Fatal("double Crash must error")
	}
	if err := cluster.Recover(3); err == nil {
		t.Fatal("Recover out of range must error")
	}
	if err := cluster.Recover(1); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejoins: messages to a crashed replica are dropped, so
// redelivery cannot repair it — Recover's automatic anti-entropy round
// must.
func TestRecoverRejoins(t *testing.T) {
	cluster, sets, err := New(3, SetObject(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sets[2].Insert("pre-crash")
	cluster.Settle()
	if err := cluster.Crash(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sets[i%2].Insert(fmt.Sprint(i))
	}
	cluster.Settle()
	if cluster.Converged() {
		// Converged excludes crashed replicas; survivors agree.
	}
	if err := cluster.Recover(2); err != nil {
		t.Fatal(err)
	}
	if !cluster.Converged() {
		t.Fatal("recovered replica did not rejoin at the survivors' state")
	}
	if !sets[2].Contains("pre-crash") || !sets[2].Contains("99") {
		t.Fatal("recovered replica lost pre-crash state or missed the repair")
	}
	synced, _ := cluster.RepairStats()
	if synced == 0 {
		t.Fatal("recovery applied nothing by anti-entropy")
	}
	st := cluster.Stats()
	if st.DroppedCrash == 0 {
		t.Fatal("crash dropped nothing — the fault never bit")
	}
}

// TestRecoverLiveCluster exercises the goroutine-mailbox backend: the
// same crash/recover contract without WithSeed.
func TestRecoverLiveCluster(t *testing.T) {
	cluster, sets, err := New(3, SetObject())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sets[0].Insert(fmt.Sprint(i))
	}
	cluster.Settle()
	if err := cluster.Recover(1); err != nil {
		t.Fatal(err)
	}
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("live cluster did not converge after recovery")
	}
	if !sets[1].Contains("49") {
		t.Fatal("live recovery missed updates")
	}
}

// TestHealSyncsBeforeBacklogDrains: after Heal's automatic digest
// exchange the sides agree immediately; the queued cross-cut backlog
// then drains entirely into duplicate drops.
func TestHealSyncsBeforeBacklogDrains(t *testing.T) {
	cluster, sets, err := New(3, SetObject(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Partition([]int{0}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sets[0].Insert(fmt.Sprint(i))
	}
	cluster.Settle()
	if cluster.Converged() {
		t.Fatal("updates crossed an open partition")
	}
	if err := cluster.Heal(); err != nil {
		t.Fatal(err)
	}
	if !cluster.Converged() {
		t.Fatal("Heal's anti-entropy round did not repair the partition")
	}
	cluster.Settle() // drain the queued cross-cut backlog
	if !cluster.Converged() {
		t.Fatal("backlog redelivery broke convergence")
	}
	_, dups := cluster.RepairStats()
	if dups == 0 {
		t.Fatal("redelivered backlog produced no duplicate drops")
	}
}

// TestFaultLinkValidation: live clusters, GC clusters, bad ids and bad
// probabilities are all refused.
func TestFaultLinkValidation(t *testing.T) {
	live, _, err := New(2, SetObject())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.FaultLink(0, 1, 0.1, 0); err == nil {
		t.Fatal("FaultLink on a live cluster must error")
	}
	gc, _, err := New(2, SetObject(), WithSeed(1), WithFIFO(), WithGC())
	if err != nil {
		t.Fatal(err)
	}
	if err := gc.FaultLink(0, 1, 0.1, 0); err == nil {
		t.Fatal("FaultLink on a WithGC cluster must error")
	}
	sim, _, err := New(2, SetObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []error{
		sim.FaultLink(0, 2, 0.1, 0),
		sim.FaultLink(0, 0, 0.1, 0),
		sim.FaultLink(0, 1, 1.0, 0),
		sim.FaultLink(0, 1, 0, -0.5),
	} {
		if bad == nil {
			t.Fatal("invalid FaultLink arguments must error")
		}
	}
	if err := sim.Partition([]int{0, 5}); err == nil {
		t.Fatal("Partition with an out-of-range id must error")
	}
	if err := live.Partition([]int{0}, []int{1}); err == nil {
		t.Fatal("Partition on a live cluster must error")
	}
	if err := live.Heal(); err == nil {
		t.Fatal("Heal on a live cluster must error")
	}
}

// TestSyncRepairsFaultedLinks: lossy links drop messages for good — the
// simulator has no retransmission — and one Sync round repairs the
// losses.
func TestSyncRepairsFaultedLinks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cluster, sets, err := New(3, SetObject(), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.FaultAll(0.4, 0.3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			sets[i%3].Insert(fmt.Sprint(i))
		}
		cluster.Settle()
		if err := cluster.FaultAll(0, 0); err != nil { // clear
			t.Fatal(err)
		}
		if err := cluster.Sync(); err != nil {
			t.Fatal(err)
		}
		if !cluster.Converged() {
			t.Fatalf("seed %d: Sync did not repair link-fault losses", seed)
		}
		if st := cluster.Stats(); st.DroppedLink == 0 {
			t.Fatalf("seed %d: FaultAll(0.4, 0.3) dropped nothing", seed)
		}
		synced, dups := cluster.RepairStats()
		if synced == 0 || dups == 0 {
			t.Fatalf("seed %d: repair counters empty (synced=%d dups=%d)", seed, synced, dups)
		}
	}
}

// TestRecoverAcrossResize: the cluster resizes while a replica is down;
// Recover must sync per shard at the new count.
func TestRecoverAcrossResize(t *testing.T) {
	cluster, maps, err := New(3, CounterMapObject(), WithSeed(4), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 100; i++ {
		maps[i%3].Inc(keys[i%len(keys)])
	}
	cluster.Settle()
	if err := cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Resize(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		maps[(i%2)*2].Inc(keys[i%len(keys)]) // replicas 0 and 2
	}
	cluster.Settle()
	if err := cluster.Recover(1); err != nil {
		t.Fatal(err)
	}
	cluster.Settle()
	if got := cluster.Shards(); got != 5 {
		t.Fatalf("cluster at %d shards, want 5", got)
	}
	if !cluster.Converged() {
		t.Fatal("recovery across a resize did not converge")
	}
	if got := maps[1].Value(keys[0]); got == 0 {
		t.Fatal("recovered replica reads zero — repair missed the resized shards")
	}
}

// TestRecoverMemoryCluster: Algorithm 2's cells have no log; recovery
// repairs by LWW cell merge instead of digest sync.
func TestRecoverMemoryCluster(t *testing.T) {
	cluster, mems, err := New(3, MemoryObject("0"), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(2); err != nil {
		t.Fatal(err)
	}
	mems[0].Write("x", "1")
	mems[1].Write("y", "2")
	cluster.Settle()
	if err := cluster.Recover(2); err != nil {
		t.Fatal(err)
	}
	if !cluster.Converged() {
		t.Fatal("memory cluster did not converge after recovery")
	}
	if got := mems[2].Read("x") + mems[2].Read("y"); got != "12" {
		t.Fatalf("recovered memory reads %q, want both cells repaired", got)
	}
}

// TestCrashedReplicaExcludedFromStrings documents that survivors keep
// operating and a later recovery is reflected in Converged's scope.
func TestConvergedScopeTracksCrashSet(t *testing.T) {
	cluster, sets, err := New(2, SetObject(), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(1); err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("only-here")
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("a crashed replica must not count against convergence")
	}
	if err := cluster.Recover(1); err != nil {
		t.Fatal(err)
	}
	if !cluster.Converged() {
		t.Fatal("once recovered, the replica is back in scope and must agree")
	}
	if got := strings.Join(sets[1].Elements(), ","); got != "only-here" {
		t.Fatalf("recovered replica holds %q", got)
	}
}

// TestUpdateOnCrashedReplica: a crash stops the transport, not the
// replica, so an update issued on a crashed replica is a local step like
// any other — it lands in that replica's log (read-your-write holds at
// once) and Recover's anti-entropy round spreads it. One outcome on every
// write path and backend; the default path used to learn of its own
// update from the broadcast's self-delivery, which a crashed transport
// suppresses, and lost it.
func TestUpdateOnCrashedReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default/live", nil},
		{"default/sim", []Option{WithSeed(3)}},
		{"lockfree/live", []Option{WithLockFreeWriters()}},
		{"recorded/sim", []Option{WithSeed(3), WithRecording()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, sets, err := New(3, SetObject(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			sets[1].Insert("before")
			cluster.Settle()
			if err := cluster.Crash(0); err != nil {
				t.Fatal(err)
			}
			sets[0].Insert("while-down")
			if !sets[0].Contains("while-down") {
				t.Fatal("crashed replica does not read its own write")
			}
			cluster.Settle()
			if sets[1].Contains("while-down") {
				t.Fatal("a crashed replica's broadcast reached a peer")
			}
			if err := cluster.Recover(0); err != nil {
				t.Fatal(err)
			}
			cluster.Settle()
			if !cluster.Converged() {
				t.Fatal("cluster diverged after recovery")
			}
			for p, s := range sets {
				if got := strings.Join(s.Elements(), ","); got != "before,while-down" {
					t.Fatalf("replica %d reads %q, want before,while-down", p, got)
				}
			}
			if cluster.rec == nil {
				return
			}
			class, err := cluster.Classify()
			if err != nil {
				t.Fatal(err)
			}
			if !class.UpdateConsistent || !class.StrongUpdateConsistent {
				t.Fatalf("recorded run classified %+v, want update consistent", class)
			}
		})
	}
}
