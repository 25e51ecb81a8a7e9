package transport

import (
	"fmt"
	"math/rand"
	"testing"
)

// parStepper returns a stepper driving the network through parallel
// rounds of the given batch, with the scheduleOp signature.
func parStepper(batch int) func(*SimNetwork) bool {
	return func(n *SimNetwork) bool { return n.StepParallel(batch) > 0 }
}

// TestSimParallelMatchesSequential is the retained-reference gate for
// the parallel adversary: with workers=1 the round-based stepper must
// reproduce the sequential Step's delivery schedule bit for bit — same
// rng stream, same picks, same envelopes — across every eligibility
// regime (unrestricted, FIFO, partitions, crashes, duplicating
// channels). A round of batch 1 is one sequential Step, so the whole
// interleaving of broadcasts, structural faults and steps matches.
func TestSimParallelMatchesSequential(t *testing.T) {
	for name, sc := range determinismScenarios() {
		t.Run(name, func(t *testing.T) {
			want := runSchedule(sc.opts, sc.ops, (*SimNetwork).Step)
			opts := sc.opts
			opts.Workers = 1
			got := runSchedule(opts, sc.ops, parStepper(1))
			if len(got) != len(want) {
				t.Fatalf("parallel workers=1 delivered %d messages, sequential %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("schedules diverge at delivery %d: parallel %q, sequential %q", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSimParallelBatchedDrainMatchesSequential: when handlers don't
// broadcast during delivery, a workers=1 drain in rounds of any batch
// size performs the exact pick sequence of the sequential Quiesce —
// batching only groups the picks, it never reorders the rng stream.
func TestSimParallelBatchedDrainMatchesSequential(t *testing.T) {
	load := func(net *SimNetwork) {
		for k := 0; k < 40; k++ {
			net.Broadcast(k%5, []byte(fmt.Sprintf("m%d", k)))
		}
	}
	for _, opts := range []SimOptions{
		{N: 5, Seed: 41},
		{N: 5, Seed: 42, FIFO: true},
		{N: 5, Seed: 43, DuplicateProb: 0.25},
	} {
		seqNet := NewSim(opts)
		want := traceNet(seqNet, opts.N)
		load(seqNet)
		seqNet.Quiesce()

		popts := opts
		popts.Workers = 1
		parNet := NewSim(popts)
		got := traceNet(parNet, opts.N)
		load(parNet)
		parNet.QuiesceParallel(7)

		if len(*got) != len(*want) {
			t.Fatalf("seed %d: batched drain delivered %d, sequential %d", opts.Seed, len(*got), len(*want))
		}
		for i := range *got {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: drains diverge at %d: %q vs %q", opts.Seed, i, (*got)[i], (*want)[i])
			}
		}
	}
}

// perDestTraces records each destination's delivery sequence in its
// own slice. With workers > 1 a single shared trace would be appended
// from concurrent goroutines — racy, and ordered by the OS scheduler
// rather than the adversary. Per-destination sequences are the
// schedule's deterministic observable: each destination is owned by
// exactly one worker, so its appends are race-free and in pick order.
func perDestTraces(net *SimNetwork, n int) [][]string {
	traces := make([][]string, n)
	for i := 0; i < n; i++ {
		to := i
		net.Attach(i, func(from int, payload []byte) {
			traces[to] = append(traces[to], fmt.Sprintf("%d->%s", from, payload))
		})
	}
	return traces
}

func compareDestTraces(t *testing.T, label string, want, got [][]string) {
	t.Helper()
	for to := range want {
		if len(got[to]) != len(want[to]) {
			t.Fatalf("%s: destination %d received %d deliveries, want %d", label, to, len(got[to]), len(want[to]))
		}
		for i := range want[to] {
			if got[to][i] != want[to][i] {
				t.Fatalf("%s: destination %d diverges at delivery %d: %q vs %q", label, to, i, got[to][i], want[to][i])
			}
		}
	}
}

// TestSimParallelSameSeedSameSchedule: for workers > 1, a (seed,
// workers, batch) triple must fix the delivery schedule and the
// schedule fingerprint — three fresh runs, identical per-destination
// delivery sequences. This is the transport half of the determinism
// regression gate.
func TestSimParallelSameSeedSameSchedule(t *testing.T) {
	for name, sc := range determinismScenarios() {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				opts := sc.opts
				opts.Workers = workers
				var traces [][][]string
				var fps []uint64
				for run := 0; run < 3; run++ {
					net := NewSim(opts)
					trace := perDestTraces(net, opts.N)
					for _, op := range sc.ops {
						op.apply(net, parStepper(5))
					}
					net.QuiesceParallel(5)
					traces = append(traces, trace)
					fps = append(fps, net.ScheduleFingerprint())
				}
				for run := 1; run < 3; run++ {
					if fps[run] != fps[0] {
						t.Fatalf("run %d fingerprint %x, run 0 %x", run, fps[run], fps[0])
					}
					compareDestTraces(t, fmt.Sprintf("run %d vs run 0", run), traces[0], traces[run])
				}
			})
		}
	}
}

// TestSimParallelDeliversEverything: with workers > 1 and no faults,
// every broadcast message reaches every live process exactly once —
// sharding the backlog must lose or duplicate nothing. Runs with real
// worker goroutines, so -race checks the ownership discipline.
func TestSimParallelDeliversEverything(t *testing.T) {
	const n, workers, msgs = 9, 4, 60
	net := NewSim(SimOptions{N: n, Seed: 7, Workers: workers})
	got := make([]map[string]int, n)
	for i := 0; i < n; i++ {
		to := i
		got[to] = map[string]int{}
		net.Attach(i, func(from int, payload []byte) {
			got[to][fmt.Sprintf("%d:%s", from, payload)]++
		})
	}
	for k := 0; k < msgs; k++ {
		net.Broadcast(k%n, []byte(fmt.Sprintf("m%d", k)))
		net.StepParallel(8)
	}
	net.QuiesceParallel(16)
	if net.Pending() != 0 {
		t.Fatalf("backlog not drained: %d pending", net.Pending())
	}
	for to := 0; to < n; to++ {
		for k := 0; k < msgs; k++ {
			key := fmt.Sprintf("%d:m%d", k%n, k)
			if c := got[to][key]; c != 1 {
				t.Fatalf("process %d received %q %d times, want exactly once", to, key, c)
			}
		}
	}
}

// TestSimParallelIndexConsistencyUnderChurn: the per-shard indexes
// must stay consistent through parallel rounds interleaved with
// broadcasts, crashes, partial-broadcast crashes, partitions, heals
// and recoveries, in both FIFO and unordered modes.
func TestSimParallelIndexConsistencyUnderChurn(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		for _, workers := range []int{2, 3} {
			t.Run(fmt.Sprintf("fifo=%v/workers=%d", fifo, workers), func(t *testing.T) {
				const n = 6
				net := NewSim(SimOptions{N: n, Seed: 9, FIFO: fifo, Workers: workers})
				for i := 0; i < n; i++ {
					net.Attach(i, func(int, []byte) {})
				}
				rng := rand.New(rand.NewSource(10))
				down := map[int]bool{}
				for round := 0; round < 400; round++ {
					switch rng.Intn(12) {
					case 0, 1, 2, 3:
						from := rng.Intn(n)
						if !net.Crashed(from) {
							net.Broadcast(from, []byte(fmt.Sprintf("r%d", round)))
						}
					case 4, 5, 6:
						net.StepParallel(rng.Intn(6) + 1)
					case 7:
						net.Partition([]int{0, 1}, []int{2, 3, 4, 5})
					case 8:
						net.Heal()
					case 9:
						if len(down) < 2 {
							id := rng.Intn(n)
							if !net.Crashed(id) {
								down[id] = true
								if rng.Intn(2) == 0 {
									net.Crash(id)
								} else {
									net.CrashPartialBroadcast(id, 0.5)
								}
							}
						}
					case 10, 11:
						for id := range down {
							net.Recover(id)
							delete(down, id)
							break
						}
					}
					checkIndex(t, net)
				}
				net.QuiesceParallel(4)
				checkIndex(t, net)
			})
		}
	}
}

// TestSimParallelBufferedRelays: handlers that broadcast during
// delivery (here: every process relays each first copy of a message it
// receives) must work through the round buffer — the self copy lands
// inline on the owning worker, the fan-out replays after the round —
// and every relay must still reach every process. Real goroutines, so
// -race covers the buffering discipline.
func TestSimParallelBufferedRelays(t *testing.T) {
	const n, workers, msgs = 8, 4, 30
	net := NewSim(SimOptions{N: n, Seed: 21, Workers: workers})
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
		net.StepParallel(6)
	}
	net.QuiesceParallel(8)
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

// TestSimStepPanicsWithWorkers: the sequential steppers are undefined
// on a multi-shard adversary and must refuse loudly.
func TestSimStepPanicsWithWorkers(t *testing.T) {
	net := NewSim(SimOptions{N: 3, Seed: 1, Workers: 2})
	for i := 0; i < 3; i++ {
		net.Attach(i, func(int, []byte) {})
	}
	net.Broadcast(0, []byte("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("Step on a Workers>1 network did not panic")
		}
	}()
	net.Step()
}

// TestCrashRepairTouchesOnlyCrashedLinks is the regression test for
// the historical rebuild-on-crash behavior, which rebuilt and
// re-sorted the FIFO queue of every link (O(N²) of them) on each
// crash. The targeted repair may touch only links incident to the
// crashed process — at most 2N of the N² links per fault event — and
// the index must remain fully consistent afterwards. This test fails
// against the historical implementation on the repair-work bound (a
// full rebuild would count every non-empty link) while both pass
// checkIndex, i.e. it would have caught the over-rebuild.
func TestCrashRepairTouchesOnlyCrashedLinks(t *testing.T) {
	const n = 12
	net := NewSim(SimOptions{N: n, Seed: 5, FIFO: true})
	for i := 0; i < n; i++ {
		net.Attach(i, func(int, []byte) {})
	}
	// Put traffic on every link: each process broadcasts several times,
	// with a few deliveries in between so queues have consumed prefixes.
	for k := 0; k < 4*n; k++ {
		net.Broadcast(k%n, []byte(fmt.Sprintf("m%d", k)))
		net.StepN(2)
	}
	if net.Pending() == 0 {
		t.Fatal("test needs a standing backlog")
	}
	base := net.IndexRepair()

	net.Crash(3)
	checkIndex(t, net)
	afterCrash := net.IndexRepair()
	if d := afterCrash.LinksRepaired - base.LinksRepaired; d > 2*n {
		t.Fatalf("Crash repaired %d links, want at most %d (only the crashed process's links)", d, 2*n)
	}

	net.CrashPartialBroadcast(7, 0.5)
	checkIndex(t, net)
	afterPartial := net.IndexRepair()
	if d := afterPartial.LinksRepaired - afterCrash.LinksRepaired; d > 2*n {
		t.Fatalf("CrashPartialBroadcast repaired %d links, want at most %d", d, 2*n)
	}

	net.Recover(3)
	net.Recover(7)
	checkIndex(t, net)
	afterRecover := net.IndexRepair()
	if d := afterRecover.LinksRepaired - afterPartial.LinksRepaired; d > 4*n {
		t.Fatalf("two Recovers repaired %d links, want at most %d", d, 4*n)
	}

	// Partitions edit no queues at all.
	net.Partition([]int{0, 1, 2}, []int{3, 4, 5, 6, 7, 8, 9, 10, 11})
	checkIndex(t, net)
	net.Heal()
	checkIndex(t, net)
	if got := net.IndexRepair().LinksRepaired; got != afterRecover.LinksRepaired {
		t.Fatalf("Partition/Heal repaired %d links, want 0", got-afterRecover.LinksRepaired)
	}
	net.Quiesce()
	checkIndex(t, net)
}
