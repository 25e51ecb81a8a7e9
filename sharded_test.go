package updatec

import (
	"fmt"
	"strings"
	"testing"
)

// The tests in this file cover the promoted sharded API: WithShards
// through the public Cluster façade — convergence, Converged, Classify
// and crash handling under adversarial simulated delivery — and the
// generic Session over sharded clusters.

func TestShardedClusterConvergesUnderAdversary(t *testing.T) {
	for _, seed := range []int64{1, 41, 97} {
		cluster, maps, err := New(3, CounterMapObject(), WithSeed(seed), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		// Interleave keyed updates with partial adversarial deliveries so
		// replicas keep observing each other's updates out of order.
		for i := 0; i < 90; i++ {
			maps[i%3].Add(fmt.Sprintf("k%d", i%13), int64(i%5)+1)
			if i%4 == 0 {
				cluster.Deliver()
			}
		}
		if cluster.Converged() {
			// Not a failure per se, but the workload is designed to leave
			// replicas divergent before settling; a converged mid-state
			// would make the assertions below vacuous.
			t.Logf("seed %d: cluster already converged before Settle", seed)
		}
		cluster.Settle()
		if !cluster.Converged() {
			t.Fatalf("seed %d: sharded cluster diverged after Settle", seed)
		}
		// Every replica agrees keyed and whole-state reads alike.
		want := strings.Join(maps[0].All(), "|")
		for p := 1; p < 3; p++ {
			if got := strings.Join(maps[p].All(), "|"); got != want {
				t.Fatalf("seed %d: replica %d merged state %q != %q", seed, p, got, want)
			}
		}
		for i := 0; i < 13; i++ {
			k := fmt.Sprintf("k%d", i)
			if maps[0].Value(k) != maps[1].Value(k) || maps[1].Value(k) != maps[2].Value(k) {
				t.Fatalf("seed %d: keyed reads diverge for %s", seed, k)
			}
		}
	}
}

func TestShardedClusterCrash(t *testing.T) {
	cluster, maps, err := New(3, CounterMapObject(), WithSeed(7), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		maps[i%3].Inc(fmt.Sprintf("k%d", i%5))
		if i%3 == 0 {
			cluster.Deliver()
		}
	}
	// Crash replica 2 with messages still in flight: its pending
	// deliveries are dropped on every shard, its broadcasts suppressed.
	cluster.Crash(2)
	maps[0].Add("after-crash", 2)
	maps[2].Add("ignored", 99) // a crashed replica's update goes nowhere
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatalf("survivors diverged after crash")
	}
	if maps[0].Value("after-crash") != 2 || maps[1].Value("after-crash") != 2 {
		t.Fatalf("post-crash update lost on survivors")
	}
	if maps[1].Value("ignored") != 0 {
		t.Fatalf("crashed replica's broadcast leaked to a survivor")
	}
}

func TestShardedClusterSetAndKV(t *testing.T) {
	// The other two partitionable objects through the same façade.
	clusterS, sets, err := New(2, SetObject(), WithSeed(3), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("a")
	sets[1].Insert("b")
	sets[1].Delete("a") // conflicts with the insert on a's shard
	clusterS.Settle()
	if !clusterS.Converged() {
		t.Fatalf("sharded set diverged")
	}
	if strings.Join(sets[0].Elements(), ",") != strings.Join(sets[1].Elements(), ",") {
		t.Fatalf("sharded set reads diverge")
	}

	clusterKV, kvs, err := New(2, KVObject(), WithSeed(5), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	kvs[0].Put("x", "1")
	kvs[1].Put("x", "2")
	kvs[1].Put("y", "3")
	clusterKV.Settle()
	if !clusterKV.Converged() {
		t.Fatalf("sharded kv diverged")
	}
	if kvs[0].Get("x") != kvs[1].Get("x") || kvs[0].Get("y") != "3" {
		t.Fatalf("sharded kv reads wrong: x=%q/%q y=%q", kvs[0].Get("x"), kvs[1].Get("x"), kvs[0].Get("y"))
	}
}

func TestShardedRecordingAndClassify(t *testing.T) {
	// Recording on a sharded cluster happens at the harness level (one
	// clock per shard rules out replica-level recording); the recorded
	// history must still classify as strong update consistent.
	cluster, maps, err := New(2, CounterMapObject(), WithSeed(43), WithShards(2), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	maps[0].Inc("a")
	maps[1].Inc("b")
	maps[0].Add("a", 2)
	_ = maps[1].Value("a") // a mid-run read, recorded too
	text, err := cluster.History()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Inc(a,1)") || !strings.Contains(text, "ω") {
		t.Fatalf("sharded history rendering unexpected:\n%s", text)
	}
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.StrongUpdateConsistent || !c.UpdateConsistent || !c.EventuallyConsistent {
		t.Fatalf("sharded run must be SUC/UC/EC: %+v", c)
	}
}

func TestShardedRecordingCrashClassify(t *testing.T) {
	// Crash one replica mid-run under adversarial delivery; the
	// survivors' recorded history (crashed replicas record no ω) must
	// still be update consistent.
	cluster, maps, err := New(3, CounterMapObject(), WithSeed(61), WithShards(2), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	maps[0].Inc("a")
	maps[1].Inc("b")
	maps[2].Inc("a")
	cluster.Deliver()
	cluster.Crash(2)
	maps[0].Inc("b")
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UpdateConsistent || !c.EventuallyConsistent {
		t.Fatalf("sharded crash run must stay UC/EC: %+v", c)
	}
	if !cluster.Converged() {
		t.Fatalf("survivors diverged")
	}
}

func TestGenericSessionFailover(t *testing.T) {
	cluster, _, err := New(3, SetObject(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Handle().Insert("order-1042")
	served := sess.TryQuery(func(s *Set) {
		if !s.Contains("order-1042") {
			t.Fatalf("read-your-writes violated")
		}
	})
	if !served {
		t.Fatalf("own replica must serve the session")
	}
	sess.Switch(1)
	if sess.TryQuery(func(s *Set) { _ = s.Elements() }) {
		t.Fatalf("stale replica served the session")
	}
	if sess.Covered() {
		t.Fatalf("Covered must report the stale replica")
	}
	// A read-free callback has nothing to refuse: TryQuery reports
	// whether every read inside f was served, so it runs vacuously.
	if !sess.TryQuery(func(*Set) {}) {
		t.Fatalf("read-free TryQuery must succeed")
	}
	cluster.Settle()
	served = sess.TryQuery(func(s *Set) {
		if !s.Contains("order-1042") {
			t.Fatalf("failover read lost the session's write")
		}
	})
	if !served {
		t.Fatalf("caught-up replica must serve the session")
	}
}

func TestGenericSessionShardedFailover(t *testing.T) {
	cluster, _, err := New(2, CounterMapObject(), WithSeed(47), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Handle()
	h.Add("x", 2)
	h.Add("y", 3)
	if !sess.TryQuery(func(m *CounterMap) {
		if m.Value("x") != 2 || m.Value("y") != 3 {
			t.Fatalf("read-your-writes violated on sharded session")
		}
		if len(m.All()) != 2 {
			t.Fatalf("whole-state session read wrong: %v", m.All())
		}
	}) {
		t.Fatalf("own replica must serve the sharded session")
	}
	// Fail over before any broadcast was delivered: replica 1 is stale
	// on both touched shards.
	sess.Switch(1)
	if sess.TryQuery(func(m *CounterMap) { _ = m.Value("x") }) {
		t.Fatalf("stale replica served the sharded session")
	}
	cluster.Settle()
	if !sess.TryQuery(func(m *CounterMap) {
		if m.Value("x") != 2 || m.Value("y") != 3 {
			t.Fatalf("sharded failover read lost session writes")
		}
	}) {
		t.Fatalf("caught-up replica must serve the sharded session")
	}
}

func TestGenericSessionKeyedReadSurvivesUnrelatedStaleShard(t *testing.T) {
	// Per-lane availability through the public TryQuery: a keyed read
	// must be served even while ANOTHER shard's lane is stale on the
	// target replica (whole-state reads must still refuse).
	cluster, _, err := New(2, CounterMapObject(), WithSeed(13), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	// Two keys owned by different shards.
	a := "k1"
	b := ""
	for i := 2; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if cluster.ShardOf(k) != cluster.ShardOf(a) {
			b = k
			break
		}
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	h := sess.Handle()
	h.Add(a, 1)
	h.Add(b, 1)
	cluster.Settle()
	h.Add(b, 1) // stays in flight: b's shard is now ahead of replica 1
	sess.Switch(1)
	if !sess.TryQuery(func(m *CounterMap) {
		if m.Value(a) != 1 {
			t.Fatalf("covered keyed read wrong: %d", m.Value(a))
		}
	}) {
		t.Fatalf("keyed read refused because an unrelated shard is stale")
	}
	if sess.TryQuery(func(m *CounterMap) { _ = m.Value(b) }) {
		t.Fatalf("stale shard served its keyed read")
	}
	if sess.TryQuery(func(m *CounterMap) { _ = m.All() }) {
		t.Fatalf("whole-state read served while one lane is stale")
	}
	cluster.Settle()
	if !sess.TryQuery(func(m *CounterMap) { _ = m.All() }) {
		t.Fatalf("settled replica must serve the whole-state read")
	}
}

func TestShardedSessionOperationsAreRecorded(t *testing.T) {
	// On a sharded recorded cluster the session is part of the harness:
	// its updates and served reads must enter the recorded history
	// (replica-level recording covers them automatically on 1-shard
	// clusters).
	cluster, maps, err := New(2, CounterMapObject(), WithSeed(67), WithShards(2), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Handle().Add("sess-key", 7)
	maps[1].Inc("plain-key")
	text, err := cluster.History()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Inc(sess-key,7)") {
		t.Fatalf("session update missing from recorded history:\n%s", text)
	}
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UpdateConsistent {
		t.Fatalf("recorded sharded run with session traffic must stay UC: %+v", c)
	}
}

func TestSessionSwitchOutOfRangePanics(t *testing.T) {
	cluster, _, err := New(2, SetObject(), WithSeed(71))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("out-of-range Switch must panic")
		}
		if !strings.Contains(fmt.Sprint(r), "out of range") {
			t.Fatalf("panic message not descriptive: %v", r)
		}
	}()
	sess.Switch(5)
}

func TestSessionHandleStaleReadPanics(t *testing.T) {
	cluster, _, err := New(2, SetObject(), WithSeed(59))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Handle().Insert("x")
	sess.Switch(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("unguarded stale session read must panic")
		}
	}()
	sess.Handle().Elements()
}

// TestSessionOnMemoryCluster: the Algorithm 2 memory tracks per-origin
// coverage like every log-based object, so its sessions keep
// read-your-writes across failover; an out-of-range replica is refused.
func TestSessionOnMemoryCluster(t *testing.T) {
	cluster, _, err := New(2, MemoryObject("v0"), WithSeed(1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Handle().Write("x", "mine")
	sess.Switch(1)
	if sess.TryQuery(func(m *Memory) { m.Read("x") }) {
		t.Fatal("replica 1 has not seen the session's write yet, but served it")
	}
	cluster.Settle()
	var got string
	if !sess.TryQuery(func(m *Memory) { got = m.Read("x") }) || got != "mine" {
		t.Fatalf("after delivery the session read %q, want its own write", got)
	}
	clusterS, _, err := New(2, SetObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clusterS.Session(5); err == nil {
		t.Fatalf("out-of-range session replica must be rejected")
	}
}

func TestShardedClusterShardsAccessors(t *testing.T) {
	cluster, _, err := New(2, CounterMapObject(), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Shards() != 4 || cluster.N() != 2 {
		t.Fatalf("accessors wrong: shards=%d n=%d", cluster.Shards(), cluster.N())
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		s := cluster.ShardOf(fmt.Sprintf("key-%d", i))
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf out of range: %d", s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("ShardOf does not spread keys: %v", seen)
	}
}
