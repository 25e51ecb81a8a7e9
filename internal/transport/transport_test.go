package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// collect attaches recording handlers to all processes of a network and
// returns the per-process delivery logs (as "from:payload" strings).
func collect(net Network, n int) []*[]string {
	logs := make([]*[]string, n)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		log := &[]string{}
		logs[i] = log
		id := i
		_ = id
		net.Attach(i, func(from int, payload []byte) {
			mu.Lock()
			*log = append(*log, fmt.Sprintf("%d:%s", from, payload))
			mu.Unlock()
		})
	}
	return logs
}

func TestSimSelfDeliveryIsSynchronous(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 1})
	logs := collect(net, 2)
	net.Broadcast(0, []byte("a"))
	if len(*logs[0]) != 1 {
		t.Fatalf("sender must deliver to itself inline, log=%v", *logs[0])
	}
	if len(*logs[1]) != 0 {
		t.Fatalf("remote delivery must be asynchronous")
	}
	net.Quiesce()
	if len(*logs[1]) != 1 {
		t.Fatalf("remote delivery missing after quiesce")
	}
}

func TestSimReliableDeliveryToCorrect(t *testing.T) {
	const n = 4
	net := NewSim(SimOptions{N: n, Seed: 42})
	logs := collect(net, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			net.Broadcast(i, []byte(fmt.Sprintf("m%d-%d", i, k)))
		}
	}
	net.Quiesce()
	for i := 0; i < n; i++ {
		if len(*logs[i]) != n*3 {
			t.Fatalf("process %d delivered %d of %d", i, len(*logs[i]), n*3)
		}
	}
	if net.Pending() != 0 {
		t.Fatalf("pending after quiesce: %d", net.Pending())
	}
}

func TestSimFIFOOrder(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 7, FIFO: true})
	logs := collect(net, 2)
	for k := 0; k < 10; k++ {
		net.Broadcast(0, []byte(fmt.Sprintf("%02d", k)))
	}
	net.Quiesce()
	got := *logs[1]
	for k := 0; k < 10; k++ {
		if got[k] != fmt.Sprintf("0:%02d", k) {
			t.Fatalf("FIFO violated at %d: %v", k, got)
		}
	}
}

func TestSimNonFIFOCanReorder(t *testing.T) {
	// Without FIFO, some seed must produce an out-of-order delivery.
	reordered := false
	for seed := int64(0); seed < 20 && !reordered; seed++ {
		net := NewSim(SimOptions{N: 2, Seed: seed})
		logs := collect(net, 2)
		for k := 0; k < 6; k++ {
			net.Broadcast(0, []byte(fmt.Sprintf("%d", k)))
		}
		net.Quiesce()
		got := *logs[1]
		for k := 1; k < len(got); k++ {
			if got[k] < got[k-1] {
				reordered = true
			}
		}
	}
	if !reordered {
		t.Fatalf("no seed reordered messages — adversary too weak")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []string {
		net := NewSim(SimOptions{N: 3, Seed: 99})
		logs := collect(net, 3)
		for i := 0; i < 3; i++ {
			for k := 0; k < 5; k++ {
				net.Broadcast(i, []byte(fmt.Sprintf("%d.%d", i, k)))
			}
		}
		net.Quiesce()
		var all []string
		for _, l := range logs {
			all = append(all, *l...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSimCrashStopsDelivery(t *testing.T) {
	net := NewSim(SimOptions{N: 3, Seed: 5})
	logs := collect(net, 3)
	net.Broadcast(0, []byte("before"))
	net.Crash(2)
	net.Quiesce()
	net.Broadcast(0, []byte("after"))
	net.Broadcast(2, []byte("from-crashed"))
	net.Quiesce()
	if len(*logs[2]) != 0 {
		t.Fatalf("crashed process received messages: %v", *logs[2])
	}
	for _, m := range *logs[1] {
		if m == "2:from-crashed" {
			t.Fatalf("crashed process broadcast leaked")
		}
	}
	if len(*logs[1]) != 2 {
		t.Fatalf("correct process should get 2 messages, got %v", *logs[1])
	}
}

func TestSimPartitionAndHeal(t *testing.T) {
	net := NewSim(SimOptions{N: 4, Seed: 11})
	logs := collect(net, 4)
	net.Partition([]int{0, 1}, []int{2, 3})
	net.Broadcast(0, []byte("x"))
	net.Quiesce()
	if len(*logs[1]) != 1 || len(*logs[2]) != 0 || len(*logs[3]) != 0 {
		t.Fatalf("partition not respected: %v %v %v", *logs[1], *logs[2], *logs[3])
	}
	if net.Pending() == 0 {
		t.Fatalf("cross-partition messages should stay queued")
	}
	net.Heal()
	net.Quiesce()
	if len(*logs[2]) != 1 || len(*logs[3]) != 1 {
		t.Fatalf("healed messages not delivered")
	}
}

func TestSimStats(t *testing.T) {
	net := NewSim(SimOptions{N: 3, Seed: 0})
	collect(net, 3)
	net.Broadcast(0, []byte("abcd"))
	net.Quiesce()
	s := net.Stats()
	if s.Broadcasts != 1 || s.Sends != 3 || s.Delivered != 3 || s.Bytes != 12 {
		t.Fatalf("stats wrong: %v", s)
	}
}

// TestBestEffortBroadcastSplitsUnderPartialCrash: the partial-crash
// adversary bites — best-effort broadcast must, for some seed, deliver
// to a strict non-empty subset of correct processes, which only the
// replicas' anti-entropy repair can close.
func TestBestEffortBroadcastSplitsUnderPartialCrash(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		const n = 4
		base := NewSim(SimOptions{N: n, Seed: seed})
		logs := collect(base, n)
		base.Broadcast(0, []byte("u"))
		base.StepN(1)
		base.CrashPartialBroadcast(0, 0)
		base.Quiesce()
		count := 0
		for i := 1; i < n; i++ {
			if len(*logs[i]) > 0 {
				count++
			}
		}
		if count > 0 && count < n-1 {
			return // divergence demonstrated
		}
	}
	t.Fatalf("best-effort broadcast never diverged; adversary broken")
}

func TestDuplicatingNetworkDuplicates(t *testing.T) {
	found := false
	for seed := int64(0); seed < 30 && !found; seed++ {
		net := NewSim(SimOptions{N: 2, Seed: seed, DuplicateProb: 0.5})
		logs := collect(net, 2)
		for k := 0; k < 5; k++ {
			net.Broadcast(0, []byte{byte(k)})
		}
		net.Quiesce()
		if len(*logs[1]) > 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicating adversary never duplicated")
	}
}

func TestDuplicateProbValidation(t *testing.T) {
	for _, opts := range []SimOptions{
		{N: 2, FIFO: true, DuplicateProb: 0.5},
		{N: 2, DuplicateProb: 1.0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSim(%+v) should panic", opts)
				}
			}()
			NewSim(opts)
		}()
	}
}

func TestLiveNetworkDeliversAll(t *testing.T) {
	const n = 4
	net := NewLive(n)
	defer net.Close()
	var mu sync.Mutex
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		net.Attach(i, func(from int, payload []byte) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				net.Broadcast(id, []byte{byte(k)})
			}
		}(i)
	}
	wg.Wait()
	net.Drain()
	net.Close()
	mu.Lock()
	defer mu.Unlock()
	for i, c := range counts {
		if c != n*50 {
			t.Fatalf("process %d got %d of %d", i, c, n*50)
		}
	}
}

func TestLiveNetworkCrash(t *testing.T) {
	net := NewLive(2)
	defer net.Close()
	var mu sync.Mutex
	got := 0
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(int, []byte) { mu.Lock(); got++; mu.Unlock() })
	net.Crash(1)
	net.Broadcast(0, []byte("x"))
	net.Drain()
	mu.Lock()
	defer mu.Unlock()
	if got != 0 {
		t.Fatalf("crashed process handled a message")
	}
}

// TestLiveStatsCountDeliveryWhenHandled: a message a crashed process's
// dispatcher discards is a crash drop, not a delivery, so every send
// is counted exactly once.
func TestLiveStatsCountDeliveryWhenHandled(t *testing.T) {
	const n = 3
	net := NewLive(n)
	defer net.Close()
	for i := 0; i < n; i++ {
		net.Attach(i, func(int, []byte) {})
	}
	net.Crash(2)
	for k := 0; k < 10; k++ {
		net.Broadcast(0, []byte("x"))
	}
	net.Drain()
	s := net.Stats()
	if s.Sends != 30 || s.DroppedCrash != 10 || s.Sends != s.Delivered+s.DroppedCrash {
		t.Fatalf("sends %d, delivered %d, dropped_crash %d: want 30 = 20 + 10", s.Sends, s.Delivered, s.DroppedCrash)
	}
}

// TestQuickSimAllSeedsConverge: for arbitrary seeds the simulator
// delivers every broadcast to every correct process exactly once —
// reliability of the substrate is what Proposition 4 builds on.
func TestQuickSimAllSeedsConverge(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%4) + 2
		net := NewSim(SimOptions{N: n, Seed: seed})
		logs := collect(net, n)
		r := rand.New(rand.NewSource(seed))
		msgs := 5 + r.Intn(10)
		for k := 0; k < msgs; k++ {
			net.Broadcast(r.Intn(n), []byte{byte(k)})
		}
		net.Quiesce()
		for i := 0; i < n; i++ {
			if len(*logs[i]) != msgs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSimShardedDelivery: every process's router receives, tagged with
// its shard, exactly the messages broadcast on that shard, and
// self-delivery stays synchronous per shard.
func TestSimShardedDelivery(t *testing.T) {
	const n, shards = 3, 4
	net := NewSim(SimOptions{N: n, Seed: 5})
	var mu sync.Mutex
	got := make([][][]string, n)
	for i := 0; i < n; i++ {
		got[i] = make([][]string, shards)
		net.AttachRouter(i, func(from, s, _ int, payload []byte) {
			mu.Lock()
			got[i][s] = append(got[i][s], fmt.Sprintf("%d:%s", from, payload))
			mu.Unlock()
		})
	}
	net.BroadcastShardEpoch(0, 2, shards, []byte("a"))
	if len(got[0][2]) != 1 {
		t.Fatalf("self-delivery on shard 2 must be inline, got %v", got[0])
	}
	net.BroadcastShardEpoch(1, 0, shards, []byte("b"))
	net.Quiesce()
	for i := 0; i < n; i++ {
		for s := 0; s < shards; s++ {
			want := 0
			switch s {
			case 2, 0:
				want = 1
			}
			if len(got[i][s]) != want {
				t.Fatalf("process %d shard %d delivered %v, want %d messages", i, s, got[i][s], want)
			}
		}
	}
	if got[2][2][0] != "0:a" || got[2][0][0] != "1:b" {
		t.Fatalf("messages landed on the wrong shard: %v", got[2])
	}
}

// TestSimShardedFIFOPerShard: with FIFO enabled, one sender's messages
// reach a peer in send order across shard tags — the link is one FIFO
// stream, so each shard's messages, a subsequence of it, are in order
// too.
func TestSimShardedFIFOPerShard(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 9, FIFO: true})
	var got []string
	net.AttachRouter(0, func(int, int, int, []byte) {})
	net.AttachRouter(1, func(_, s, _ int, payload []byte) {
		got = append(got, fmt.Sprintf("s%d:%s", s, payload))
	})
	var want []string
	for k := 0; k < 12; k++ {
		net.BroadcastShardEpoch(0, k%4, 4, []byte(fmt.Sprint(k)))
		want = append(want, fmt.Sprintf("s%d:%d", k%4, k))
	}
	net.Quiesce()
	if !slices.Equal(got, want) {
		t.Fatalf("link 0→1 FIFO violated: got %v, want %v", got, want)
	}
}

// TestLiveFIFOAcrossShards: one goroutine broadcasts round-robin over four
// shard tags, and the peer sees every message in send order — the live
// network keeps one mailbox per process, not one per shard.
func TestLiveFIFOAcrossShards(t *testing.T) {
	const msgs, shards = 2000, 4
	net := NewLive(2)
	defer net.Close()
	var mu sync.Mutex
	var got []int
	net.AttachRouter(0, func(int, int, int, []byte) {})
	net.AttachRouter(1, func(_, s, _ int, payload []byte) {
		k, _ := strconv.Atoi(string(payload))
		if k%shards != s {
			t.Errorf("message %d arrived on shard %d", k, s)
		}
		mu.Lock()
		got = append(got, k)
		mu.Unlock()
	})
	for k := 0; k < msgs; k++ {
		net.BroadcastShardEpoch(0, k%shards, shards, []byte(strconv.Itoa(k)))
	}
	net.Drain()
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("link 0→1 FIFO violated at position %d: got message %d", i, k)
		}
	}
}

// TestLiveShardedDeliversAll: concurrent broadcasts across shards all
// land on the right shard of every process.
func TestLiveShardedDeliversAll(t *testing.T) {
	const n, shards, per = 3, 4, 40
	net := NewLive(n)
	defer net.Close()
	var mu sync.Mutex
	counts := make([][]int, n)
	for i := 0; i < n; i++ {
		counts[i] = make([]int, shards)
		net.AttachRouter(i, func(_, s, _ int, _ []byte) {
			mu.Lock()
			counts[i][s]++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(id, shard int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					net.BroadcastShardEpoch(id, shard, shards, []byte{byte(k)})
				}
			}(i, s)
		}
	}
	wg.Wait()
	net.Drain()
	mu.Lock()
	defer mu.Unlock()
	for i := range counts {
		for s, c := range counts[i] {
			if c != n*per {
				t.Fatalf("process %d shard %d got %d of %d", i, s, c, n*per)
			}
		}
	}
}

// TestLiveMailboxBatchDrain: a backlog accumulated while the handler
// is slow is still delivered completely and in mailbox order — the
// batch-drain dispatcher must not lose or reorder envelopes.
func TestLiveMailboxBatchDrain(t *testing.T) {
	net := NewLive(2)
	defer net.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	var got []byte
	first := true
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(from int, payload []byte) {
		if first {
			first = false
			<-release // hold the dispatcher so a backlog builds up
		}
		mu.Lock()
		got = append(got, payload[0])
		mu.Unlock()
	})
	for k := 0; k < 100; k++ {
		net.Broadcast(0, []byte{byte(k)})
	}
	close(release)
	net.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("mailbox order violated at %d: got %d", i, b)
		}
	}
}

// TestLiveCrashDropsBacklog: a crash takes effect for messages already
// queued (and even for a batch the dispatcher swapped out) — the
// batch-drain loop must re-check the crash flag per message.
func TestLiveCrashDropsBacklog(t *testing.T) {
	net := NewLive(2)
	defer net.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	got := 0
	first := true
	net.Attach(0, func(int, []byte) {})
	net.Attach(1, func(from int, payload []byte) {
		if first {
			first = false
			<-release // hold the dispatcher while a backlog builds
		}
		mu.Lock()
		got++
		mu.Unlock()
	})
	net.Broadcast(0, []byte("head"))
	for k := 0; k < 99; k++ {
		net.Broadcast(0, []byte("backlog"))
	}
	net.Crash(1)
	close(release)
	net.Drain()
	mu.Lock()
	defer mu.Unlock()
	// Only deliveries that were already executing (the held head, and
	// possibly a few racing ahead of Crash) may land; the backlog
	// queued before the crash must be dropped, not fully delivered.
	if got == 100 {
		t.Fatal("crash did not stop delivery of the queued backlog")
	}
}

// TestLiveCrashSurvivesEnsureShards: a crashed process drops
// deliveries and suppresses its own broadcasts on every shard tag, ones
// it never used before the crash included.
func TestLiveCrashSurvivesEnsureShards(t *testing.T) {
	ln := NewLive(2)
	defer ln.Close()
	var delivered [2]atomic.Uint64
	for id := 0; id < 2; id++ {
		p := id
		ln.AttachRouter(id, func(from, shard, epoch int, payload []byte) {
			delivered[p].Add(1)
		})
	}
	ln.Crash(1)
	for shard := 0; shard < 4; shard++ {
		ln.BroadcastShardEpoch(0, shard, 4, []byte("x"))
		ln.BroadcastShardEpoch(1, shard, 4, []byte("y"))
	}
	ln.Drain()
	if got := delivered[1].Load(); got != 0 {
		t.Fatalf("crashed process handled %d deliveries", got)
	}
	if got := delivered[0].Load(); got != 4 {
		t.Fatalf("live process deliveries: got %d, want 4 (its own broadcasts only)", got)
	}
}

// TestSimHandlerRelaysReachEveryone: a handler that broadcasts while it
// is being delivered to (here every process relays the first copy of
// each message it receives) feeds the backlog Step draws from, so Step
// and Quiesce carry every relay to every process exactly once.
func TestSimHandlerRelaysReachEveryone(t *testing.T) {
	const n, msgs = 8, 30
	net := NewSim(SimOptions{N: n, Seed: 21})
	counts := make([]map[string]int, n)
	for i := 0; i < n; i++ {
		to := i
		counts[to] = map[string]int{}
		net.Attach(i, func(from int, payload []byte) {
			counts[to][string(payload)]++
			if payload[0] == 'u' && counts[to][string(payload)] == 1 {
				net.Broadcast(to, append([]byte("r"), payload...))
			}
		})
	}
	for k := 0; k < msgs; k++ {
		net.Broadcast(k%n, []byte(fmt.Sprintf("u%d", k)))
		net.StepN(6)
	}
	net.Quiesce()
	for to := 0; to < n; to++ {
		for k := 0; k < msgs; k++ {
			if c := counts[to][fmt.Sprintf("u%d", k)]; c != 1 {
				t.Fatalf("process %d delivered u%d %d times, want once", to, k, c)
			}
			// One relay from each process that got the original: all n,
			// the origin's own inline self copy included.
			if c := counts[to][fmt.Sprintf("ru%d", k)]; c != n {
				t.Fatalf("process %d delivered %d relays of u%d, want %d", to, c, k, n)
			}
		}
	}
}
