package transport

import (
	"fmt"
	"math/rand"
	"testing"
)

// refStep is the pre-index Step, kept verbatim as the reference the
// eligible index must reproduce: scan every pending envelope, collect
// the eligible ones in array order, pick uniformly, swap-remove. It
// drives a SimNetwork without maintaining the index (which the
// determinism tests never consult on the reference instance).
func refStep(n *SimNetwork) bool {
	sh := &n.shards[0] // the reference is sequential: a single shard
	var candidates []int
	for i := range sh.pending {
		if n.eligible(&sh.pending[i]) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return false
	}
	at := candidates[n.rng.Intn(len(candidates))]
	e := sh.pending[at]
	last := len(sh.pending) - 1
	sh.pending[at] = sh.pending[last]
	sh.pending[last] = envelope{}
	sh.pending = sh.pending[:last]
	if n.opts.FIFO {
		n.nextSeq[n.link(e.from, e.to)] = e.seq
	}
	if n.opts.DuplicateProb > 0 && n.rng.Float64() < n.opts.DuplicateProb {
		dup := e
		dup.id = n.nextID
		n.nextID++
		sh.pending = append(sh.pending, dup)
		n.stats.Sends++
		n.stats.Bytes += uint64(len(e.payload))
	}
	n.stats.Delivered++
	n.deliver(e.to, e.from, e.shard, e.epoch, e.payload)
	return true
}

// traceNet attaches recording handlers to every process of a sim
// network and returns the global delivery trace.
func traceNet(net *SimNetwork, n int) *[]string {
	trace := &[]string{}
	for i := 0; i < n; i++ {
		to := i
		net.Attach(i, func(from int, payload []byte) {
			*trace = append(*trace, fmt.Sprintf("%d->%d:%s", from, to, payload))
		})
	}
	return trace
}

// scheduleOp is one step of a determinism scenario, applied to the
// indexed network and the scan-reference network in lockstep.
type scheduleOp struct {
	apply func(net *SimNetwork, step func(*SimNetwork) bool)
}

func bcast(from int, payload string) scheduleOp {
	return scheduleOp{func(net *SimNetwork, _ func(*SimNetwork) bool) {
		net.Broadcast(from, []byte(payload))
	}}
}

func steps(k int) scheduleOp {
	return scheduleOp{func(net *SimNetwork, step func(*SimNetwork) bool) {
		for i := 0; i < k; i++ {
			step(net)
		}
	}}
}

func structural(f func(*SimNetwork)) scheduleOp {
	return scheduleOp{func(net *SimNetwork, _ func(*SimNetwork) bool) { f(net) }}
}

// runSchedule drives a fresh network through the scenario with the
// given stepper and returns the delivery trace.
func runSchedule(opts SimOptions, ops []scheduleOp, step func(*SimNetwork) bool) []string {
	net := NewSim(opts)
	trace := traceNet(net, opts.N)
	for _, op := range ops {
		op.apply(net, step)
	}
	for step(net) {
	}
	return *trace
}

// determinismScenarios covers every eligibility regime: unrestricted
// (all pending eligible), FIFO link readiness, partitions with heal,
// crashes (clean and mid-broadcast), and duplicating channels.
func determinismScenarios() map[string]struct {
	opts SimOptions
	ops  []scheduleOp
} {
	burst := func(n, count int) []scheduleOp {
		ops := make([]scheduleOp, 0, count)
		for k := 0; k < count; k++ {
			ops = append(ops, bcast(k%n, fmt.Sprintf("m%d", k)))
			if k%5 == 4 {
				ops = append(ops, steps(3))
			}
		}
		return ops
	}
	return map[string]struct {
		opts SimOptions
		ops  []scheduleOp
	}{
		"unrestricted": {
			opts: SimOptions{N: 5, Seed: 101},
			ops:  burst(5, 40),
		},
		"fifo": {
			opts: SimOptions{N: 4, Seed: 102, FIFO: true},
			ops:  burst(4, 40),
		},
		"partition-heal": {
			opts: SimOptions{N: 4, Seed: 103, FIFO: true},
			ops: append(append([]scheduleOp{
				structural(func(n *SimNetwork) { n.Partition([]int{0, 1}, []int{2, 3}) }),
			}, burst(4, 30)...),
				structural((*SimNetwork).Heal),
				bcast(0, "after-heal"),
			),
		},
		"crash": {
			opts: SimOptions{N: 5, Seed: 104},
			ops: append(burst(5, 20),
				structural(func(n *SimNetwork) { n.Crash(3) }),
				bcast(0, "after-crash"),
				steps(2),
				structural(func(n *SimNetwork) { n.CrashPartialBroadcast(1, 0.5) }),
				bcast(2, "after-partial"),
			),
		},
		"duplicates": {
			opts: SimOptions{N: 3, Seed: 105, DuplicateProb: 0.3},
			ops:  burst(3, 30),
		},
	}
}

// TestSimStepMatchesScanReference: for a fixed seed, the indexed Step
// must produce the delivery schedule of the historical O(pending)
// scan, envelope for envelope, across every eligibility regime. This
// is the "schedule unchanged before and after the index" gate: the
// recorded experiments pin seeds, so the index must not perturb them.
func TestSimStepMatchesScanReference(t *testing.T) {
	for name, sc := range determinismScenarios() {
		t.Run(name, func(t *testing.T) {
			got := runSchedule(sc.opts, sc.ops, (*SimNetwork).Step)
			want := runSchedule(sc.opts, sc.ops, refStep)
			if len(got) != len(want) {
				t.Fatalf("indexed Step delivered %d messages, scan reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("schedules diverge at delivery %d: indexed %q, reference %q", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSimStepSameSeedSameSchedule: two fresh networks with the same
// seed must produce identical schedules through the indexed Step
// (reproducibility, independent of the reference).
func TestSimStepSameSeedSameSchedule(t *testing.T) {
	for name, sc := range determinismScenarios() {
		t.Run(name, func(t *testing.T) {
			a := runSchedule(sc.opts, sc.ops, (*SimNetwork).Step)
			b := runSchedule(sc.opts, sc.ops, (*SimNetwork).Step)
			if len(a) != len(b) {
				t.Fatalf("runs delivered %d vs %d messages", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverged at delivery %d: %q vs %q", i, a[i], b[i])
				}
			}
		})
	}
}

// checkIndex asserts every index invariant against the pending array:
// eligibility bits mirror eligible(), the count matches, the Fenwick
// tree selects exactly the eligible positions in ascending order, and
// in FIFO mode each link queue holds exactly that link's envelopes in
// sequence order with back-pointers intact.
func checkIndex(t *testing.T, n *SimNetwork) {
	t.Helper()
	for s := range n.shards {
		sh := &n.shards[s]
		count := 0
		var want []int
		for i := range sh.pending {
			e := &sh.pending[i]
			if e.to%n.nshards != s {
				t.Fatalf("shard %d holds envelope to %d (owner %d)", s, e.to, e.to%n.nshards)
			}
			if e.elig != n.eligible(e) {
				t.Fatalf("shard %d pending[%d] elig bit %v, eligible() %v", s, i, e.elig, n.eligible(e))
			}
			if e.elig {
				count++
				want = append(want, i)
			}
		}
		if count != sh.eligCount {
			t.Fatalf("shard %d eligCount %d, actual eligible %d", s, sh.eligCount, count)
		}
		if !n.uniform() {
			for k, pos := range want {
				if got := sh.idx.selectK(k); got != pos {
					t.Fatalf("shard %d selectK(%d) = %d, want %d", s, k, got, pos)
				}
			}
		}
	}
	if !n.opts.FIFO {
		return
	}
	// seen[shard] maps pending positions covered by the link queues.
	seen := make([]map[int]bool, n.nshards)
	for s := range seen {
		seen[s] = make(map[int]bool)
	}
	for l := range n.linkQ {
		lq := &n.linkQ[l]
		s := (l % n.opts.N) % n.nshards // link (from,to): shard of `to`
		sh := &n.shards[s]
		var prev uint64
		for pos := lq.head; pos < len(lq.q); pos++ {
			p := lq.q[pos]
			if p < 0 || p >= len(sh.pending) {
				t.Fatalf("link %d queue points at %d, shard %d pending has %d", l, p, s, len(sh.pending))
			}
			e := &sh.pending[p]
			if n.link(e.from, e.to) != l {
				t.Fatalf("link %d queue holds envelope of link %d", l, n.link(e.from, e.to))
			}
			if e.lpos != pos {
				t.Fatalf("shard %d pending[%d].lpos = %d, queue position %d", s, p, e.lpos, pos)
			}
			if e.seq <= prev && pos > lq.head {
				t.Fatalf("link %d queue out of seq order: %d after %d", l, e.seq, prev)
			}
			prev = e.seq
			if seen[s][p] {
				t.Fatalf("shard %d pending[%d] appears in two link queue slots", s, p)
			}
			seen[s][p] = true
		}
	}
	for s := range n.shards {
		if len(seen[s]) != len(n.shards[s].pending) {
			t.Fatalf("shard %d link queues hold %d envelopes, pending %d", s, len(seen[s]), len(n.shards[s].pending))
		}
	}
}

// TestSimIndexConsistencyUnderChurn: the index must stay consistent
// with pending through interleaved broadcasts, deliveries (swap-
// removes), crashes, partial-broadcast crashes (the Drop path), and
// partition changes.
func TestSimIndexConsistencyUnderChurn(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		t.Run(fmt.Sprintf("fifo=%v", fifo), func(t *testing.T) {
			const n = 5
			net := NewSim(SimOptions{N: n, Seed: 9, FIFO: fifo})
			for i := 0; i < n; i++ {
				net.Attach(i, func(int, []byte) {})
			}
			rng := rand.New(rand.NewSource(10))
			crashed := 0
			for round := 0; round < 400; round++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					from := rng.Intn(n)
					if !net.Crashed(from) {
						net.Broadcast(from, []byte(fmt.Sprintf("r%d", round)))
					}
				case 4, 5, 6:
					net.Step()
				case 7:
					net.Partition([]int{0, 1}, []int{2, 3, 4})
				case 8:
					net.Heal()
				case 9:
					// Keep a majority alive so traffic continues.
					if crashed < 2 {
						id := rng.Intn(n)
						if !net.Crashed(id) {
							crashed++
							if rng.Intn(2) == 0 {
								net.Crash(id)
							} else {
								net.CrashPartialBroadcast(id, 0.5)
							}
						}
					}
				}
				checkIndex(t, net)
			}
			net.Quiesce()
			checkIndex(t, net)
		})
	}
}

// TestSimCrashDropKeepsBucketsConsistent: the Crash and
// CrashPartialBroadcast paths rewrite pending wholesale; the rebuilt
// index must agree with the surviving envelopes, and delivery must
// continue correctly afterwards.
func TestSimCrashDropKeepsBucketsConsistent(t *testing.T) {
	const n = 4
	net := NewSim(SimOptions{N: n, Seed: 31, FIFO: true})
	trace := traceNet(net, n)
	for k := 0; k < 24; k++ {
		net.Broadcast(k%n, []byte(fmt.Sprintf("m%d", k)))
	}
	checkIndex(t, net)
	net.CrashPartialBroadcast(2, 0.4)
	checkIndex(t, net)
	net.Crash(1)
	checkIndex(t, net)
	afterCrash := len(*trace)
	net.Quiesce()
	checkIndex(t, net)
	// No delivery may target a crashed process after its crash.
	for _, d := range (*trace)[afterCrash:] {
		var from, to int
		var rest string
		if _, err := fmt.Sscanf(d, "%d->%d:%s", &from, &to, &rest); err != nil {
			t.Fatalf("malformed trace entry %q: %v", d, err)
		}
		if to == 1 || to == 2 {
			t.Fatalf("delivery %q to crashed process after crash", d)
		}
	}
	// Quiescence means the eligible set is empty even though blocked
	// envelopes (dropped-seq FIFO suffixes) may remain pending.
	if net.Eligible() != 0 {
		t.Fatalf("quiesced network still reports %d eligible of %d pending", net.Eligible(), net.Pending())
	}
}
