package updatec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestClusterResizeSimulated: a simulated sharded cluster resized
// mid-run — backlog in flight, replicas flipping one after another —
// settles to a converged, correct state at the new shard count.
func TestClusterResizeSimulated(t *testing.T) {
	cluster, maps, err := New(3, CounterMapObject(), WithSeed(11), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := 0; i < 60; i++ {
		maps[i%3].Add(keys[i%len(keys)], 1)
		cluster.Deliver()
	}
	if err := cluster.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Shards(); got != 8 {
		t.Fatalf("Shards() = %d after Resize(8)", got)
	}
	for i := 0; i < 60; i++ {
		maps[i%3].Add(keys[i%len(keys)], 1)
		cluster.Deliver()
	}
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("cluster did not converge after Resize")
	}
	for _, k := range keys {
		want := int64(120 / len(keys))
		for p := 0; p < 3; p++ {
			if got := maps[p].Value(k); got != want {
				t.Fatalf("replica %d: %s = %d, want %d", p, k, got, want)
			}
		}
		if s := cluster.ShardOf(k); s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%q) = %d out of [0,8)", k, s)
		}
	}
}

// TestClusterResizeLive: on the live transport a Resize is coordinated
// cluster-wide while client goroutines keep hammering the handles —
// their updates stall for the move and resume after the flip; nothing
// is lost. Run under -race in CI.
func TestClusterResizeLive(t *testing.T) {
	const n, perWorker = 3, 150
	cluster, maps, err := New(n, CounterMapObject(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := fmt.Sprintf("worker-%d", p)
			for i := 0; i < perWorker; i++ {
				maps[p].Add(key, 1)
			}
		}(p)
	}
	if err := cluster.Resize(8); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("live cluster did not converge after Resize")
	}
	for p := 0; p < n; p++ {
		key := fmt.Sprintf("worker-%d", p)
		for q := 0; q < n; q++ {
			if got := maps[q].Value(key); got != perWorker {
				t.Fatalf("replica %d: %s = %d, want %d", q, key, got, perWorker)
			}
		}
	}
	// And shrink back down, still under load-free settle.
	if err := cluster.Resize(3); err != nil {
		t.Fatal(err)
	}
	cluster.Settle()
	if !cluster.Converged() || cluster.Shards() != 3 {
		t.Fatalf("shrink to 3 shards failed: converged=%v shards=%d", cluster.Converged(), cluster.Shards())
	}
}

// TestClusterResizeSetAndKV: the other partitionable built-ins resize
// correctly (single-writer keys make the converged values exact).
func TestClusterResizeSetAndKV(t *testing.T) {
	t.Run("set", func(t *testing.T) {
		cluster, sets, err := New(2, SetObject(), WithSeed(5), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		sets[0].Insert("keep")
		sets[0].Insert("drop")
		cluster.Deliver()
		if err := cluster.Resize(6); err != nil {
			t.Fatal(err)
		}
		sets[0].Delete("drop")
		sets[1].Insert("late")
		cluster.Settle()
		if !cluster.Converged() {
			t.Fatal("set cluster did not converge after Resize")
		}
		for p := 0; p < 2; p++ {
			if !sets[p].Contains("keep") || !sets[p].Contains("late") || sets[p].Contains("drop") {
				t.Fatalf("replica %d: wrong elements %v", p, sets[p].Elements())
			}
		}
	})
	t.Run("kv", func(t *testing.T) {
		cluster, kvs, err := New(2, KVObject(), WithSeed(6), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		kvs[0].Put("a", "1")
		kvs[1].Put("b", "2")
		if err := cluster.Resize(2); err != nil {
			t.Fatal(err)
		}
		kvs[0].Put("a", "3")
		cluster.Settle()
		if !cluster.Converged() {
			t.Fatal("kv cluster did not converge after Resize")
		}
		for p := 0; p < 2; p++ {
			if kvs[p].Get("a") != "3" || kvs[p].Get("b") != "2" {
				t.Fatalf("replica %d: a=%q b=%q", p, kvs[p].Get("a"), kvs[p].Get("b"))
			}
		}
	})
}

// TestClusterResizeRecordedSharded: a sharded recorded cluster records
// straight through a resize, and the history still classifies as
// update consistent.
func TestClusterResizeRecordedSharded(t *testing.T) {
	cluster, maps, err := New(2, CounterMapObject(), WithSeed(9), WithShards(2), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maps[0].Add("x", 1)
	maps[1].Add("y", 2)
	if err := cluster.Resize(4); err != nil {
		t.Fatal(err)
	}
	maps[0].Add("x", 1)
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UpdateConsistent {
		t.Fatalf("resized recorded run not update consistent: %+v", c)
	}
}

// TestResizeRecordedSingleShard: a 1-shard recorded cluster resizes and
// keeps recording — every operation, session ones included, enters the
// history before and after the Resize, and the history classifies as
// update consistent.
func TestResizeRecordedSingleShard(t *testing.T) {
	cluster, maps, err := New(2, CounterMapObject(), WithSeed(5), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maps[0].Add("a", 1)
	maps[1].Value("a")
	sess, err := cluster.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	sess.Handle().Add("b", 2)
	if !sess.TryQuery(func(m *CounterMap) { m.Value("b") }) {
		t.Fatal("session read of its own write refused")
	}
	if err := cluster.Resize(4); err != nil {
		t.Fatalf("Resize on a 1-shard recorded cluster: %v", err)
	}
	maps[0].Add("c", 3)
	maps[1].All()
	if sess, err = cluster.Session(0); err != nil {
		t.Fatal(err)
	}
	sess.Handle().Add("d", 4)
	if !sess.TryQuery(func(m *CounterMap) { m.Value("d"); m.All() }) {
		t.Fatal("session read of its own write refused")
	}
	cluster.Settle()
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UpdateConsistent {
		t.Fatalf("resized recorded run not update consistent: %+v", c)
	}
	h, err := cluster.History()
	if err != nil {
		t.Fatal(err)
	}
	// Per process: its operations in program order, then its ω query.
	want := [][]string{
		{"Inc(a,1)", "Inc(c,3)", "Inc(d,4)", "R(d)/4", "R*/", "R*/{a=1,b=2,c=3,d=4}ω"},
		{"R(a)/", "Inc(b,2)", "R(b)/2", "R*/", "R*/{a=1,b=2,c=3,d=4}ω"},
	}
	lines := strings.Split(strings.TrimSpace(h), "\n")[1:]
	if len(lines) != len(want) {
		t.Fatalf("history has %d processes, want %d:\n%s", len(lines), len(want), h)
	}
	for p, line := range lines {
		ops := strings.Fields(line)[1:]
		if len(ops) != len(want[p]) {
			t.Fatalf("p%d recorded %d operations, want %d:\n%s", p, len(ops), len(want[p]), h)
		}
		for i, op := range ops {
			if !strings.HasPrefix(op, want[p][i]) {
				t.Fatalf("p%d operation %d is %s, want %s…:\n%s", p, i, op, want[p][i], h)
			}
		}
	}
}

// TestResizeErrors: Resize follows the same option/object discipline
// as WithShards — and accepts the Algorithm 2 memory, which is
// partitionable like any register map.
func TestResizeErrors(t *testing.T) {
	if cluster, mems, err := New(2, MemoryObject("")); err != nil {
		t.Fatal(err)
	} else {
		mems[0].Write("x", "1")
		if err := cluster.Resize(4); err != nil {
			t.Fatalf("Resize on MemoryObject: %v", err)
		}
		mems[1].Write("y", "2")
		cluster.Settle()
		if cluster.Shards() != 4 || mems[1].Read("x") != "1" || mems[0].Read("y") != "2" || !cluster.Converged() {
			t.Fatalf("resized memory cluster: %d shards, x=%q y=%q", cluster.Shards(), mems[1].Read("x"), mems[0].Read("y"))
		}
		cluster.Close()
	}
	if cluster, _, err := New(2, CounterObject()); err != nil {
		t.Fatal(err)
	} else {
		if err := cluster.Resize(4); err == nil {
			t.Fatal("Resize on a non-partitionable object did not error")
		}
		cluster.Close()
	}
	cluster, _, err := New(2, SetObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Resize(0); err == nil {
		t.Fatal("Resize(0) did not error")
	}
	if err := cluster.Resize(1); err != nil {
		t.Fatalf("no-op Resize(1) errored: %v", err)
	}
	if err := cluster.Resize(4); err != nil {
		t.Fatalf("Resize(4) from one shard errored: %v", err)
	}
	cluster.Close()
	if err := cluster.Resize(8); err == nil {
		t.Fatal("Resize on a closed cluster did not error")
	}
}

// TestCacheStatsOnRecordedCluster: the query-output cache now serves
// recording clusters — repeat reads hit, and the public counter proves
// it (the ROADMAP open item this PR closes).
func TestCacheStatsOnRecordedCluster(t *testing.T) {
	cluster, sets, err := New(2, SetObject(), WithSeed(4), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sets[0].Insert("x")
	cluster.Settle()
	for i := 0; i < 6; i++ {
		sets[0].Elements()
	}
	hits, _ := cluster.CacheStats()
	if hits == 0 {
		t.Fatal("recorded cluster never hit the query cache")
	}
	// Recording stayed complete: the classification still sees every
	// read.
	if _, err := cluster.Classify(); err != nil {
		t.Fatal(err)
	}
}
