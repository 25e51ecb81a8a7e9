package updatec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSetClusterLive(t *testing.T) {
	cluster, sets, err := New(3, SetObject())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for i, s := range sets {
		wg.Add(1)
		go func(i int, s *Set) {
			defer wg.Done()
			s.Insert(fmt.Sprint(i))
			if i%2 == 0 {
				s.Delete(fmt.Sprint(i + 1))
			}
		}(i, s)
	}
	wg.Wait()
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatalf("live set cluster did not converge")
	}
}

func TestSetClusterSimulatedDeterminism(t *testing.T) {
	run := func() []string {
		cluster, sets, err := New(2, SetObject(), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		sets[0].Insert("a")
		sets[1].Delete("a")
		sets[1].Insert("b")
		cluster.Settle()
		return sets[0].Elements()
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("simulated runs differ: %v vs %v", a, b)
	}
}

// TestWholeStateReadsBelongToCaller pins that a whole-state answer is
// the caller's to change: writing into one must not reach the next
// reader, who would otherwise get the replica's cached answer as the
// caller left it.
func TestWholeStateReadsBelongToCaller(t *testing.T) {
	_, sets, err := New(1, SetObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("a")
	sets[0].Insert("b")
	e := sets[0].Elements()
	e[0] = "zzz"
	if got := strings.Join(sets[0].Elements(), ","); got != "a,b" {
		t.Fatalf("Elements after a caller's write = %s, want a,b", got)
	}

	_, ctrs, err := New(1, CounterMapObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctrs[0].Inc("k")
	all := ctrs[0].All()
	all[0] = "zzz"
	if got := strings.Join(ctrs[0].All(), ","); got != "k=1" {
		t.Fatalf("All after a caller's write = %s, want k=1", got)
	}

	_, graphs, err := New(1, GraphObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	graphs[0].AddVertex("u")
	graphs[0].AddVertex("v")
	graphs[0].AddEdge("u", "v")
	vs, es := graphs[0].Vertices(), graphs[0].Edges()
	vs[0], es[0] = "zzz", [2]string{"zzz", "zzz"}
	if got := fmt.Sprint(graphs[0].Vertices(), graphs[0].Edges()); got != "[u v] [[u v]]" {
		t.Fatalf("Vertices and Edges after a caller's write = %s, want [u v] [[u v]]", got)
	}

	_, seqs, err := New(1, SequenceObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	seqs[0].InsertAt(0, "a")
	seqs[0].InsertAt(1, "b")
	items := seqs[0].Items()
	items[0] = "zzz"
	if got := strings.Join(seqs[0].Items(), ","); got != "a,b" {
		t.Fatalf("Items after a caller's write = %s, want a,b", got)
	}
}

func TestDeliverStepwise(t *testing.T) {
	cluster, sets, err := New(2, SetObject(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("x")
	if sets[1].Contains("x") {
		t.Fatalf("update visible before delivery")
	}
	if !cluster.Deliver() {
		t.Fatalf("one message should be deliverable")
	}
	if !sets[1].Contains("x") {
		t.Fatalf("update not visible after delivery")
	}
	if cluster.Deliver() {
		t.Fatalf("nothing should remain in flight")
	}
}

func TestCounterCluster(t *testing.T) {
	cluster, ctrs, err := New(3, CounterObject(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctrs[0].Inc()
	ctrs[1].Add(41)
	ctrs[2].Dec()
	cluster.Settle()
	for i, c := range ctrs {
		if got := c.Value(); got != 41 {
			t.Fatalf("counter %d = %d, want 41", i, got)
		}
	}
}

func TestRegisterCluster(t *testing.T) {
	cluster, regs, err := New(2, RegisterObject("v0"), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if regs[0].Read() != "v0" {
		t.Fatalf("initial value lost")
	}
	regs[0].Write("a")
	regs[1].Write("b")
	cluster.Settle()
	if regs[0].Read() != regs[1].Read() {
		t.Fatalf("registers diverged")
	}
}

func TestTextLogCluster(t *testing.T) {
	cluster, logs, err := New(2, TextLogObject(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	logs[0].Append("one")
	logs[1].Append("two")
	cluster.Settle()
	a, b := logs[0].Lines(), logs[1].Lines()
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("documents diverged: %v vs %v", a, b)
	}
}

func TestKVAndMemoryClusters(t *testing.T) {
	clusterKV, kvs, err := New(2, KVObject(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	kvs[0].Put("k", "v1")
	kvs[1].Put("k", "v2")
	clusterKV.Settle()
	if kvs[0].Get("k") != kvs[1].Get("k") {
		t.Fatalf("kv diverged")
	}

	clusterMem, mems, err := New(2, MemoryObject("0"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	mems[0].Write("k", "v1")
	mems[1].Write("k", "v2")
	clusterMem.Settle()
	if mems[0].Read("k") != mems[1].Read("k") {
		t.Fatalf("memory diverged")
	}
	if !clusterMem.Converged() {
		t.Fatalf("memory cluster should report convergence")
	}
	// Algorithm 1 and Algorithm 2 resolve the identical conflict the
	// same way: both order the writes by (clock, pid).
	if kvs[0].Get("k") != mems[0].Read("k") {
		t.Fatalf("Algorithm 1 and Algorithm 2 disagree: %q vs %q",
			kvs[0].Get("k"), mems[0].Read("k"))
	}
}

func TestCrashSurvivors(t *testing.T) {
	cluster, sets, err := New(3, SetObject(), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("a")
	cluster.Settle()
	cluster.Crash(2)
	sets[1].Insert("b")
	cluster.Settle()
	if got := strings.Join(sets[0].Elements(), ","); got != "a,b" {
		t.Fatalf("survivor 0: %s", got)
	}
	if got := strings.Join(sets[1].Elements(), ","); got != "a,b" {
		t.Fatalf("survivor 1: %s", got)
	}
}

func TestRecordingAndClassification(t *testing.T) {
	cluster, sets, err := New(2, SetObject(), WithSeed(17), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("1")
	sets[1].Insert("2")
	text, err := cluster.History()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "I(1)") || !strings.Contains(text, "ω") {
		t.Fatalf("history rendering unexpected:\n%s", text)
	}
	c, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.StrongUpdateConsistent || !c.UpdateConsistent || !c.EventuallyConsistent {
		t.Fatalf("Algorithm 1 run must be SUC/UC/EC: %+v", c)
	}
}

func TestClassifyHistoryText(t *testing.T) {
	c, err := ClassifyHistory(`
		set
		p0: I(1) D(2) R/{1,2}ω
		p1: I(2) D(1) R/{1,2}ω
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1(b): SEC but not UC.
	if !c.StrongEventuallyConsistent || c.UpdateConsistent {
		t.Fatalf("Fig1b classification wrong: %+v", c)
	}
	if _, err := ClassifyHistory("garbage"); err == nil {
		t.Fatalf("expected parse error")
	}
}

func TestOptionValidation(t *testing.T) {
	if _, _, err := New(0, SetObject()); err == nil {
		t.Fatalf("zero-size cluster must be rejected")
	}
	if _, _, err := New(2, Object[*Set]{}); err == nil {
		t.Fatalf("zero Object must be rejected")
	}
	if _, _, err := New(2, SetObject(), WithSeed(1), WithGC()); err == nil {
		t.Fatalf("GC without FIFO must be rejected on simulated transport")
	}
	if _, _, err := New(2, SetObject(), WithSeed(1), WithGC(), WithFIFO()); err != nil {
		t.Fatalf("GC with FIFO should work: %v", err)
	}
	if _, _, err := New(2, SetObject(), WithShards(0)); err == nil {
		t.Fatalf("zero shards must be rejected")
	}
}

func TestOptionObjectCombinationErrors(t *testing.T) {
	// MemoryObject (Algorithm 2) is the register map with a masking log:
	// it takes every option the generic construction does.
	for name, opts := range map[string][]Option{
		"replay engine": {WithSeed(1), withReplayEngine()},
		"WithGC":        {WithSeed(1), WithFIFO(), WithGC()},
		"WithShards":    {WithSeed(1), WithShards(2)},
	} {
		cluster, mems, err := New(2, MemoryObject("v0"), opts...)
		if err != nil {
			t.Fatalf("%s on a memory cluster: %v", name, err)
		}
		for k := 0; k < 40; k++ {
			mems[k%2].Write(fmt.Sprint("k", k%3), fmt.Sprint(k))
		}
		cluster.Settle()
		if !cluster.Converged() || mems[0].Read("k0") != "39" || mems[1].Read("absent") != "v0" {
			t.Fatalf("%s: memory cluster reads k0=%q absent=%q", name, mems[0].Read("k0"), mems[1].Read("absent"))
		}
	}
	// WithShards requires a partitionable object.
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"counter", func() error { _, _, err := New(2, CounterObject(), WithShards(2)); return err }()},
		{"register", func() error { _, _, err := New(2, RegisterObject(""), WithShards(2)); return err }()},
		{"log", func() error { _, _, err := New(2, TextLogObject(), WithShards(2)); return err }()},
		{"graph", func() error { _, _, err := New(2, GraphObject(), WithShards(2)); return err }()},
		{"sequence", func() error { _, _, err := New(2, SequenceObject(), WithShards(2)); return err }()},
	} {
		if tc.err == nil {
			t.Fatalf("WithShards on non-partitionable %s must be rejected", tc.name)
		}
	}
	// The partitionable objects accept shards.
	for _, err := range []error{
		func() error { _, _, err := New(2, SetObject(), WithSeed(1), WithShards(2)); return err }(),
		func() error { _, _, err := New(2, KVObject(), WithSeed(1), WithShards(2)); return err }(),
		func() error { _, _, err := New(2, CounterMapObject(), WithSeed(1), WithShards(2)); return err }(),
	} {
		if err != nil {
			t.Fatalf("WithShards on a partitionable object failed: %v", err)
		}
	}
}

// withReplayEngine runs a cluster on the paper-literal ReplayEngine: the
// oracle the default engine is compared with.
func withReplayEngine() Option { return func(c *config) { c.replay = true } }

func TestEngineOptions(t *testing.T) {
	// The default engine, then the replay oracle.
	for _, engine := range [][]Option{nil, {withReplayEngine()}} {
		cluster, sets, err := New(2, SetObject(), append(engine, WithSeed(19))...)
		if err != nil {
			t.Fatal(err)
		}
		sets[0].Insert("x")
		sets[1].Delete("x")
		cluster.Settle()
		if !cluster.Converged() {
			t.Fatalf("cluster diverged")
		}
	}
}

func TestStatsExposed(t *testing.T) {
	cluster, sets, err := New(2, SetObject(), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("x")
	cluster.Settle()
	st := cluster.Stats()
	if st.Broadcasts != 1 || st.Bytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGraphCluster(t *testing.T) {
	cluster, graphs, err := New(2, GraphObject(), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	graphs[0].AddVertex("a")
	graphs[0].AddVertex("b")
	graphs[0].AddEdge("a", "b")
	graphs[1].RemoveVertex("b") // concurrent with everything
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatalf("graph cluster diverged")
	}
	// Referential integrity at every replica, whatever the order.
	for i, g := range graphs {
		present := map[string]bool{}
		for _, v := range g.Vertices() {
			present[v] = true
		}
		for _, e := range g.Edges() {
			if !present[e[0]] || !present[e[1]] {
				t.Fatalf("replica %d exposes dangling edge %v", i, e)
			}
		}
	}
}

func TestSequenceCluster(t *testing.T) {
	cluster, seqs, err := New(2, SequenceObject(), WithSeed(37))
	if err != nil {
		t.Fatal(err)
	}
	seqs[0].InsertAt(0, "a")
	seqs[1].InsertAt(0, "b")
	cluster.Settle()
	a, b := seqs[0].Items(), seqs[1].Items()
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("sequences diverged: %v vs %v", a, b)
	}
	seqs[0].DeleteAt(0)
	cluster.Settle()
	if len(seqs[1].Items()) != 1 {
		t.Fatalf("delete not propagated: %v", seqs[1].Items())
	}
}

func TestLiveSoakAllObjects(t *testing.T) {
	// A longer mixed workload on the live transport; run under -race
	// in CI. One cluster per object kind, concurrent writers.
	if testing.Short() {
		t.Skip("soak test")
	}
	clusterS, sets, err := New(4, SetObject())
	if err != nil {
		t.Fatal(err)
	}
	defer clusterS.Close()
	clusterC, ctrs, err := New(4, CounterObject())
	if err != nil {
		t.Fatal(err)
	}
	defer clusterC.Close()
	clusterQ, seqs, err := New(4, SequenceObject())
	if err != nil {
		t.Fatal(err)
	}
	defer clusterQ.Close()
	clusterM, maps, err := New(4, CounterMapObject(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer clusterM.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				sets[i].Insert(fmt.Sprint(k % 7))
				if k%3 == 0 {
					sets[i].Delete(fmt.Sprint((k + 1) % 7))
				}
				ctrs[i].Add(int64(k%5 - 2))
				seqs[i].InsertAt(k%4, fmt.Sprint(i))
				maps[i].Add(fmt.Sprint(k%11), 1)
				if k%5 == 0 {
					seqs[i].DeleteAt(0)
					_ = sets[i].Elements()
					_ = ctrs[i].Value()
					_ = maps[i].Value(fmt.Sprint(k % 11))
					_ = maps[i].All()
				}
			}
		}(i)
	}
	wg.Wait()
	clusterS.Settle()
	clusterC.Settle()
	clusterQ.Settle()
	clusterM.Settle()
	if !clusterS.Converged() || !clusterC.Converged() || !clusterQ.Converged() || !clusterM.Converged() {
		t.Fatalf("soak clusters diverged: set=%v counter=%v sequence=%v countermap=%v",
			clusterS.Converged(), clusterC.Converged(), clusterQ.Converged(), clusterM.Converged())
	}
}

func TestHistoryWithoutRecordingErrs(t *testing.T) {
	cluster, _, err := New(2, SetObject(), WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.History(); err == nil {
		t.Fatalf("History without WithRecording must fail")
	}
}

func TestSetSessionAndMemoryClusterThroughNew(t *testing.T) {
	// What the deleted pre-generic constructor and session shims were
	// tested for, through New and Cluster.Session.
	cluster, sets, err := New(2, SetObject(), WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("x")
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	tryElements := func() (elems []string, ok bool) {
		ok = sess.TryQuery(func(h *Set) { elems = h.Elements() })
		return elems, ok
	}
	sess.Handle().Insert("y")
	if _, ok := tryElements(); !ok {
		t.Fatalf("own replica must serve the session")
	}
	sess.Switch(1)
	if _, ok := tryElements(); ok {
		t.Fatalf("stale replica must refuse the session")
	}
	cluster.Settle()
	elems, ok := tryElements()
	if !ok || strings.Join(elems, ",") != "x,y" {
		t.Fatalf("settled session read wrong: %v %v", elems, ok)
	}
	if !cluster.Converged() {
		t.Fatalf("set cluster diverged")
	}

	clusterM, mems, err := New(2, MemoryObject("0"), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	mems[0].Write("k", "v")
	clusterM.Settle()
	if mems[1].Read("k") != "v" {
		t.Fatalf("memory cluster lost a write")
	}
}

// TestScheduleDeterminism is the determinism gate at the public API:
// the seed alone fixes the adversary's delivery schedule. Two fresh runs
// with the same seed must report the same ScheduleFingerprint, Stats
// and Converged — for a plain cluster, a key-sharded one, and one
// resized mid-run with the backlog in flight, through a workload that
// also crashes, partitions, heals and recovers — and another seed must
// give another fingerprint.
func TestScheduleDeterminism(t *testing.T) {
	type snap struct {
		fp        uint64
		stats     NetworkStats
		converged bool
	}
	run := func(seed int64, shards, resize int) snap {
		opts := []Option{WithSeed(seed)}
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		cluster, sets, err := New(4, SetObject(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		crashed := false
		for k := 0; k < 120; k++ {
			var err error
			switch k {
			case 30:
				err, crashed = cluster.Crash(2), true
			case 40:
				err = cluster.Partition([]int{0, 1})
			case 55:
				if resize > 0 {
					err = cluster.Resize(resize)
				}
			case 60:
				err = cluster.Heal()
			case 70:
				err, crashed = cluster.Recover(2), false
			}
			if err != nil {
				t.Fatal(err)
			}
			p := k % 4
			if p == 2 && crashed {
				continue
			}
			if k%5 == 0 {
				sets[p].Delete(fmt.Sprintf("v%d", k%9))
			} else {
				sets[p].Insert(fmt.Sprintf("v%d", k%9))
			}
			cluster.Deliver()
		}
		cluster.Settle()
		if err := cluster.Sync(); err != nil {
			t.Fatal(err)
		}
		cluster.Settle()
		return snap{fp: cluster.ScheduleFingerprint(), stats: cluster.Stats(), converged: cluster.Converged()}
	}
	for _, v := range []struct {
		name           string
		shards, resize int
	}{
		{"plain", 1, 0},
		{"sharded", 4, 0},
		{"resize", 2, 5},
	} {
		t.Run(v.name, func(t *testing.T) {
			a, b := run(31, v.shards, v.resize), run(31, v.shards, v.resize)
			if !a.converged {
				t.Fatal("seed 31 did not converge")
			}
			if a != b {
				t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
			}
			if c := run(32, v.shards, v.resize); c.fp == a.fp {
				t.Fatalf("seeds 31 and 32 gave the same schedule fingerprint %x", a.fp)
			}
		})
	}
}
