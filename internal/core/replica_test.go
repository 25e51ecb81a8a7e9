package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"updatec/internal/check"
	"updatec/internal/clock"
	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// driveRandom issues a pseudo-random set workload interleaved with
// network deliveries and returns the replicas after quiescence.
func driveRandom(t *testing.T, seed int64, n, opsPerProc int, opt ClusterOptions, fifo bool) ([]*Replica, *transport.SimNetwork) {
	t.Helper()
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed, FIFO: fifo})
	reps := Cluster(n, spec.Set(), net, opt)
	rng := rand.New(rand.NewSource(seed))
	support := []string{"1", "2", "3"}
	for k := 0; k < opsPerProc*n; k++ {
		p := rng.Intn(n)
		v := support[rng.Intn(len(support))]
		if rng.Intn(2) == 0 {
			reps[p].Update(spec.Ins{V: v})
		} else {
			reps[p].Update(spec.Del{V: v})
		}
		// Interleave a few deliveries to create genuine concurrency.
		net.StepN(rng.Intn(3))
	}
	net.Quiesce()
	return reps, net
}

func TestClusterConvergesAdversarialDelivery(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		reps, _ := driveRandom(t, seed, 4, 6, ClusterOptions{}, false)
		want := reps[0].StateKey()
		for _, r := range reps[1:] {
			if got := r.StateKey(); got != want {
				t.Fatalf("seed %d: replica %d diverged: %s vs %s", seed, r.ID(), got, want)
			}
		}
	}
}

func TestUpdateVisibleLocallyOnReturn(t *testing.T) {
	// Wait-freedom with read-your-writes at the local replica: the
	// paper's broadcast is self-received instantaneously.
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 0})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{})
	reps[0].Update(spec.Ins{V: "x"})
	out := reps[0].Query(spec.Read{}).(spec.Elems)
	if out.String() != "{x}" {
		t.Fatalf("own update not locally visible: %v", out)
	}
	// And NOT yet visible remotely (no delivery happened).
	if got := reps[1].Query(spec.Read{}).(spec.Elems); got.String() != "∅" {
		t.Fatalf("remote update visible without delivery: %v", got)
	}
}

func TestRecordedHistoryIsSUC(t *testing.T) {
	// Proposition 4, experimentally: Algorithm 1's histories are
	// strong update consistent. Small sizes keep the decider fast.
	for seed := int64(0); seed < 15; seed++ {
		rec := history.NewRecorder(spec.Set(), 2)
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: seed})
		reps := Cluster(2, spec.Set(), net, ClusterOptions{Recorder: rec})
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 4; k++ {
			p := rng.Intn(2)
			v := fmt.Sprint(rng.Intn(2) + 1)
			if rng.Intn(2) == 0 {
				reps[p].Update(spec.Ins{V: v})
			} else {
				reps[p].Update(spec.Del{V: v})
			}
			if rng.Intn(2) == 0 {
				reps[p].Query(spec.Read{})
			}
			net.StepN(rng.Intn(2))
		}
		net.Quiesce()
		for _, r := range reps {
			r.QueryOmega(spec.Read{})
		}
		h, err := rec.History()
		if err != nil {
			t.Fatal(err)
		}
		r := check.SUC(h)
		if !r.Holds {
			t.Fatalf("seed %d: history not SUC (%s):\n%s", seed, r.Reason, h.String())
		}
		if err := check.ValidateSUCWitness(h, r.Witness); err != nil {
			t.Fatalf("seed %d: witness: %v", seed, err)
		}
		// Proposition 3 on the same run: the SUC witness converts to an
		// Insert-wins relation.
		if err := check.InsertWinsFromSUC(h, r.Witness); err != nil {
			t.Fatalf("seed %d: Prop 3: %v", seed, err)
		}
	}
}

func TestCrashedReplicaDoesNotBlockConvergence(t *testing.T) {
	// Wait-freedom under crashes: any number of processes may halt;
	// the survivors still converge among themselves.
	net := transport.NewSim(transport.SimOptions{N: 4, Seed: 9})
	reps := Cluster(4, spec.Set(), net, ClusterOptions{})
	reps[0].Update(spec.Ins{V: "a"})
	net.Quiesce()
	net.Crash(3)
	reps[1].Update(spec.Ins{V: "b"})
	reps[2].Update(spec.Del{V: "a"})
	net.Crash(2) // crash after its broadcast was handed to the network
	net.Quiesce()
	want := reps[0].StateKey()
	if got := reps[1].StateKey(); got != want {
		t.Fatalf("survivors diverged: %s vs %s", got, want)
	}
	if want != "{b}" {
		t.Fatalf("survivors state = %s, want {b}", want)
	}
}

// TestPartialBroadcastCrashRepairedByAntiEntropy: with best-effort
// broadcast, a crash mid-broadcast may leave the survivors diverged;
// one digest exchange each way between them closes the gap.
func TestPartialBroadcastCrashRepairedByAntiEntropy(t *testing.T) {
	diverged := 0
	for seed := int64(0); seed < 200; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
		reps := Cluster(3, spec.Set(), net, ClusterOptions{})
		reps[0].Update(spec.Ins{V: "x"})
		net.StepN(1) // one copy reaches someone, then the sender dies
		net.CrashPartialBroadcast(0, 0)
		net.Quiesce()
		if reps[1].StateKey() == reps[2].StateKey() {
			continue
		}
		diverged++
		for _, p := range [][2]int{{1, 2}, {2, 1}} {
			if _, err := reps[p[0]].SyncFrom(reps[p[1]]); err != nil {
				t.Fatalf("seed %d: sync %d<-%d: %v", seed, p[0], p[1], err)
			}
		}
		if a, b := reps[1].StateKey(), reps[2].StateKey(); a != b || a != "{x}" {
			t.Fatalf("seed %d: survivors after repair: %s vs %s, want {x}", seed, a, b)
		}
	}
	if diverged == 0 {
		t.Fatalf("best-effort broadcast never diverged under partial crash")
	}
}

func TestClusterOnAtLeastOnceChannelDedups(t *testing.T) {
	// Raw duplicating network: the log-level dedup absorbs the
	// redeliveries (they are counted, not applied) and the replicas
	// still converge. Before anti-entropy repair existed this was a
	// panic — duplicates could only mean a broken transport; now they
	// are a legal event on the repair paths, so the guard moved from
	// "refuse" to "drop and count".
	dups := uint64(0)
	for seed := int64(0); seed < 50; seed++ {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: seed, DuplicateProb: 0.9})
		reps := Cluster(2, spec.Set(), net, ClusterOptions{})
		for k := 0; k < 10; k++ {
			reps[0].Update(spec.Ins{V: fmt.Sprint(k)})
		}
		net.Quiesce()
		if reps[0].StateKey() != reps[1].StateKey() {
			t.Fatalf("seed %d: duplicating cluster diverged", seed)
		}
		dups += reps[1].Stats().DupDropped
	}
	if dups == 0 {
		t.Fatalf("DuplicateProb=0.9 over 50 seeds produced no duplicate drops")
	}
}

func TestLiveClusterUnderRace(t *testing.T) {
	// Concurrent goroutine workload on the live transport; run with
	// -race in CI. Convergence after drain.
	const n = 3
	net := transport.NewLive(n)
	defer net.Close()
	reps := Cluster(n, spec.Set(), net, ClusterOptions{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				if k%3 == 0 {
					reps[id].Update(spec.Del{V: fmt.Sprint(k % 5)})
				} else {
					reps[id].Update(spec.Ins{V: fmt.Sprint(k % 5)})
				}
				if k%7 == 0 {
					reps[id].Query(spec.Read{})
				}
			}
		}(i)
	}
	wg.Wait()
	net.Drain()
	want := reps[0].StateKey()
	for _, r := range reps[1:] {
		if got := r.StateKey(); got != want {
			t.Fatalf("live cluster diverged: %s vs %s", got, want)
		}
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 0})
	r := NewReplica(Config{ID: 0, N: 1, ADT: spec.Set(), Net: net})
	f := func(cl uint64, ins bool, v string) bool {
		var u spec.Update
		if ins {
			u = spec.Ins{V: v}
		} else {
			u = spec.Del{V: v}
		}
		ts := clock.Timestamp{Clock: cl % 1000000, Proc: 0}
		payload, err := r.wire.appendMessage(nil, ts, u)
		if err != nil {
			return false
		}
		e, err := r.wire.decodeMessage(payload)
		return err == nil && e.TS == ts && e.U == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptMessages(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 0})
	r := NewReplica(Config{ID: 0, N: 1, ADT: spec.Set(), Net: net})
	bad := [][]byte{
		{},
		{0x01},             // timestamp truncated after the clock
		{0x01, 0x00, 0x05}, // unknown set-update tag 0x05
	}
	for _, b := range bad {
		if _, err := r.wire.decodeMessage(b); err == nil {
			t.Fatalf("decode(%v) should fail", b)
		}
	}
}

func TestReplicaStats(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{})
	reps[0].Update(spec.Ins{V: "a"})
	reps[1].Update(spec.Ins{V: "b"})
	net.Quiesce()
	s := reps[0].Stats()
	if s.TotalOps != 2 || s.LogLen != 2 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.Clock == 0 {
		t.Fatalf("clock did not advance")
	}
}

func TestNonCodecSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for spec without codec")
		}
	}()
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 0})
	NewReplica(Config{ID: 0, N: 1, ADT: codecSansCodec(), Net: net})
}

// codecSansCodec hides CounterSpec's codec behind a wrapper that only
// exposes the UQADT surface.
func codecSansCodec() spec.UQADT {
	return struct {
		spec.UQADT
	}{spec.Counter()}
}

// tiedPeerNet is a transport for one replica that answers every broadcast
// by first delivering a message from peer 1 stamped with the SAME clock —
// it sorts right after the sender's own (clock, 0) — and only then the
// sender's own copy: a legal interleaving on the live transport, where
// remote deliveries run on the dispatcher goroutine while the sender is
// still inside Broadcast.
type tiedPeerNet struct {
	t testing.TB
	h transport.Handler
}

func (n *tiedPeerNet) Attach(_ int, h transport.Handler) { n.h = h }

func (n *tiedPeerNet) Broadcast(from int, payload []byte) {
	stamps, err := stepStamps(payload)
	if err != nil {
		panic(err)
	}
	n.h(1, stepOf(n.t, newMessageCodec(spec.Log()), nil, clock.Timestamp{Clock: stamps[0].Clock, Proc: 1}, spec.Append{V: "peer"}))
	n.h(from, payload)
}

// TestTiedPeerDeliveryBeforeSelfDelivery: with GC compacting after every
// delivery, a peer message tied on clock with an own update that has been
// stamped but whose self-delivery has not run yet used to compact past the
// own stamp — the replica had told its stability tracker about a clock
// whose update was not in the log — and the self-delivery then panicked
// "arrived below compaction horizon". The own update now lands in the step
// that stamps it, so both entries are there, in (clock, id) order.
func TestTiedPeerDeliveryBeforeSelfDelivery(t *testing.T) {
	r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Log(), Net: &tiedPeerNet{t: t}, GC: true, GCEvery: 1})
	r.Update(spec.Append{V: "own"})
	got := r.Query(spec.ReadLog{}).(spec.Lines)
	if len(got) != 2 || got[0] != "own" || got[1] != "peer" {
		t.Fatalf("log reads %q, want [own peer]", got)
	}
	if st := r.Stats(); st.TotalOps != 2 {
		t.Fatalf("replica holds %d updates, want 2", st.TotalOps)
	}
}
