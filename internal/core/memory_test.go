package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"updatec/internal/check"
	"updatec/internal/clock"
	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The shared memory of Algorithm 2 is Algorithm 1 over spec.Memory, a
// spec.Masking spec: the replica's log keeps the winning write per
// register, drops arrivals below it as masked, and purges the writes it
// overwrote. These tests hold that log policy to Algorithm 2's rules.

func memCluster(n int, seed int64, rec *history.Recorder) ([]*Replica, *transport.SimNetwork) {
	net := transport.NewSim(transport.SimOptions{N: n, Seed: seed})
	return Cluster(n, spec.Memory("0"), net, ClusterOptions{Recorder: rec}), net
}

func write(r *Replica, x, v string) { r.Update(spec.WriteKey{K: x, V: v}) }

func read(r *Replica, x string) string { return string(r.Query(spec.ReadKey{K: x}).(spec.RegVal)) }

func TestMemoryBasics(t *testing.T) {
	mems, net := memCluster(2, 1, nil)
	if got := read(mems[0], "x"); got != "0" {
		t.Fatalf("initial read: %s", got)
	}
	write(mems[0], "x", "1")
	if got := read(mems[0], "x"); got != "1" {
		t.Fatalf("read own write: %s", got)
	}
	if got := read(mems[1], "x"); got != "0" {
		t.Fatalf("remote write visible before delivery: %s", got)
	}
	net.Quiesce()
	if got := read(mems[1], "x"); got != "1" {
		t.Fatalf("write not propagated: %s", got)
	}
}

func TestMemoryLWWConvergence(t *testing.T) {
	// Concurrent writes to the same register converge via the
	// timestamp order on every seed.
	f := func(seed int64) bool {
		mems, net := memCluster(3, seed, nil)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			p := rng.Intn(3)
			write(mems[p], fmt.Sprintf("k%d", rng.Intn(3)), fmt.Sprintf("v%d.%d", p, k))
			net.StepN(rng.Intn(4))
		}
		net.Quiesce()
		want, wantFP := mems[0].StateKey(), mems[0].Fingerprint()
		for _, m := range mems[1:] {
			if m.StateKey() != want || m.Fingerprint() != wantFP {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryOldWriteNeverOverwritesNewer(t *testing.T) {
	// Deliver a stale write after a newer one: the register must keep
	// the newer value (lines 11–13 of Algorithm 2), and the stale write
	// is dropped on arrival as masked, not landed and not counted as a
	// duplicate.
	mems, net := memCluster(2, 0, nil)
	write(mems[0], "x", "old") // ts (1,0)
	write(mems[1], "x", "new") // ts (1,1) > (1,0)
	net.Quiesce()
	for i, m := range mems {
		if got := read(m, "x"); got != "new" {
			t.Fatalf("replica %d: %s", i, got)
		}
	}
	st := mems[1].Stats()
	if st.Masked != 1 || st.DupDropped != 0 || st.LogLen != 1 {
		t.Fatalf("replica 1: masked %d, duplicates %d, log %d; want 1, 0, 1", st.Masked, st.DupDropped, st.LogLen)
	}
	if mems[0].Fingerprint() != mems[1].Fingerprint() {
		t.Fatalf("one winner, two fingerprints: %v vs %v", mems[0].Fingerprint(), mems[1].Fingerprint())
	}
}

func TestMemoryRecordedHistoryIsUC(t *testing.T) {
	// Algorithm 2's histories must be update consistent for the memory
	// UQ-ADT (the paper presents it as "an update consistent
	// implementation of the shared memory object").
	for seed := int64(0); seed < 10; seed++ {
		rec := history.NewRecorder(spec.Memory("0"), 2)
		mems, net := memCluster(2, seed, rec)
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"x", "y"}
		for k := 0; k < 4; k++ {
			p := rng.Intn(2)
			write(mems[p], keys[rng.Intn(2)], fmt.Sprintf("%d", k))
			if rng.Intn(2) == 0 {
				read(mems[p], keys[rng.Intn(2)])
			}
			net.StepN(rng.Intn(2))
		}
		net.Quiesce()
		for _, m := range mems {
			m.QueryOmega(spec.ReadKey{K: "x"})
		}
		h, err := rec.History()
		if err != nil {
			t.Fatal(err)
		}
		r := check.UC(h)
		if !r.Holds {
			t.Fatalf("seed %d: memory history not UC (%s):\n%s", seed, r.Reason, h.String())
		}
	}
}

func TestMemoryCellCountBounded(t *testing.T) {
	// §VII-C/E9: the log grows with the register count, not the
	// operation count — it never holds more than twice the registers
	// written, whatever the interleaving of writes and deliveries.
	mems, net := memCluster(2, 3, nil)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 500; k++ {
		write(mems[k%2], fmt.Sprintf("k%d", k%4), fmt.Sprint(k))
		net.StepN(rng.Intn(3))
		for i, m := range mems {
			if n := m.Stats().LogLen; n > 2*4 {
				t.Fatalf("write %d: replica %d holds %d entries for 4 registers", k, i, n)
			}
		}
	}
	net.Quiesce()
	for i, m := range mems {
		if st := m.Stats(); st.Masked == 0 || st.TotalOps < 500-int(st.Masked) {
			t.Fatalf("replica %d: %d landed, %d masked of 500 writes", i, st.TotalOps, st.Masked)
		}
		if fp := m.Fingerprint(); fp.Count != 4 {
			t.Fatalf("replica %d: fingerprint counts %d winners, want 4", i, fp.Count)
		}
	}
	if got, want := mems[0].StateKey(), "k0=496;k1=497;k2=498;k3=499;"; got != want {
		t.Fatalf("state %s, want %s", got, want)
	}
}

func TestMemoryWireCodec(t *testing.T) {
	// A write travels as the one message format every replica speaks
	// (codec.go): its stamp and the spec's own update bytes.
	mc := newMessageCodec(spec.Memory("0"))
	f := func(cl uint64, p uint8, k, v string) bool {
		ts := clock.Timestamp{Clock: cl % 1e9, Proc: int(p)}
		payload, err := mc.appendMessage(nil, ts, spec.WriteKey{K: k, V: v})
		if err != nil {
			return false
		}
		e, err := mc.decodeMessage(payload)
		return err == nil && e.TS == ts && e.U == spec.WriteKey{K: k, V: v}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{{}, {0x01}, {0x01, 0x00, 0x09}} {
		if _, err := mc.decodeMessage(b); err == nil {
			t.Fatalf("decodeMessage(%v) should fail", b)
		}
	}
}

func TestMemoryCrashTolerance(t *testing.T) {
	mems, net := memCluster(3, 4, nil)
	write(mems[0], "x", "1")
	net.Quiesce()
	net.Crash(0)
	write(mems[1], "y", "2")
	net.Quiesce()
	if mems[1].StateKey() != mems[2].StateKey() {
		t.Fatalf("survivors diverged: %s vs %s", mems[1].StateKey(), mems[2].StateKey())
	}
	if got := read(mems[2], "y"); got != "2" {
		t.Fatalf("y not propagated after crash of 0: %s", got)
	}
}

// TestMaskingFingerprint: a masking log's fingerprint is its winner set.
// A masked arrival leaves it unchanged, so replicas that saw the same
// writes in opposite orders agree; so does the redelivery of an entry
// the log has already purged.
func TestMaskingFingerprint(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 1})
	reps := Cluster(3, spec.Memory(""), net, ClusterOptions{})
	w := func(cl uint64, p int, k, v string) (clock.Timestamp, spec.Update) {
		return clock.Timestamp{Clock: cl, Proc: p}, spec.WriteKey{K: k, V: v}
	}
	// Replica 0 lands both writes to x; replica 1 gets the newer first,
	// so the older one arrives masked.
	old, oldU := w(1, 2, "x", "old")
	nu, nuU := w(2, 2, "x", "new")
	reps[0].Absorb(old, oldU)
	reps[0].Absorb(nu, nuU)
	reps[1].Absorb(nu, nuU)
	reps[1].Absorb(old, oldU)
	if reps[1].Stats().Masked != 1 {
		t.Fatalf("the older write was not masked on arrival: %+v", reps[1].Stats())
	}
	if a, b := reps[0].Fingerprint(), reps[1].Fingerprint(); a != b || a.Count != 1 {
		t.Fatalf("masked arrival moved the fingerprint: %v vs %v", a, b)
	}
	if a, b := reps[0].StateKey(), reps[1].StateKey(); a != b {
		t.Fatalf("equal fingerprints, unequal states: %s vs %s", a, b)
	}
	// Overwrite y until the dead entries outnumber the winners and the
	// log purges, then redeliver the first (purged) write to y.
	first, firstU := w(3, 1, "y", "0")
	reps[2].Absorb(first, firstU)
	for i := uint64(1); i <= 4; i++ {
		ts, u := w(3+i, 1, "y", fmt.Sprint(i))
		reps[2].Absorb(ts, u)
	}
	before, key, st := reps[2].Fingerprint(), reps[2].StateKey(), reps[2].Stats()
	if st.LogLen != 1 || st.TotalOps != 5 {
		t.Fatalf("log holds %d live of %d landed, want 1 of 5 after the purge", st.LogLen, st.TotalOps)
	}
	reps[2].Absorb(first, firstU)
	if got := reps[2].Fingerprint(); got != before || reps[2].StateKey() != key {
		t.Fatalf("a redelivered purged entry changed the replica: %v → %v", before, got)
	}
	if st := reps[2].Stats(); st.Masked != 1 || st.DupDropped != 0 || st.LogLen != 1 {
		t.Fatalf("redelivered purged entry: %+v, want it counted as masked", st)
	}
}

// TestMaskingPurgeKeepsEnginesRight lands writes with late arrivals of
// every depth into masking replicas with each engine and compares them
// to a replay of the unmasked update set, through purges and rebinds.
func TestMaskingPurgeKeepsEnginesRight(t *testing.T) {
	engines := []func() Engine{
		func() Engine { return NewUndoEngine() },
		func() Engine { return NewCheckpointEngine(4) },
		func() Engine { return NewReplayEngine() },
	}
	for _, mk := range engines {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1})
		r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Memory("0"), Net: net, Engine: mk()})
		all := NewLog(spec.Memory("0"))
		rng := rand.New(rand.NewSource(7))
		const n = 2000
		perm := rng.Perm(n)
		for i := range perm {
			if rng.Intn(3) > 0 {
				perm[i] = i // mostly in order, a third displaced
			}
		}
		seen := map[int]bool{}
		for _, c := range perm {
			if seen[c] {
				continue
			}
			seen[c] = true
			e := Entry{TS: clock.Timestamp{Clock: uint64(c + 1), Proc: 1}, U: spec.WriteKey{K: fmt.Sprint("k", c%5), V: fmt.Sprint(c)}}
			r.Absorb(e.TS, e.U)
			all.Insert(e)
			if rng.Intn(5) == 0 {
				if got, want := r.StateKey(), spec.Memory("0").KeyState(all.Replay()); got != want {
					t.Fatalf("%s after %d arrivals: %s, unmasked replay %s", r.engine.Name(), len(seen), got, want)
				}
				if got := read(r, "k3"); got != string(spec.Memory("0").Query(all.Replay(), spec.ReadKey{K: "k3"}).(spec.RegVal)) {
					t.Fatalf("%s: read k3 = %s disagrees with the unmasked replay", r.engine.Name(), got)
				}
			}
			if l := r.Stats().LogLen; l > 2*5 {
				t.Fatalf("%s: live log %d exceeds twice the 5 registers", r.engine.Name(), l)
			}
		}
		if r.Stats().Masked == 0 {
			t.Fatalf("%s: vacuous run, no arrival was masked", r.engine.Name())
		}
	}
}

// TestSessionCoversMaskedArrival: a write that arrives at a replica
// already holding a newer write to its register is dropped there as
// masked, yet the replica's state reflects it — overwritten — so a
// session that observed the write must still be served there.
func TestSessionCoversMaskedArrival(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 1})
	reps := ShardedCluster(3, 1, spec.Memory(""), net, ClusterOptions{})
	sess := NewShardedSession(reps[0])
	net.Partition([]int{0}, []int{1, 2})
	sess.Update(spec.WriteKey{K: "x", V: "mine"})     // stamped (1,0)
	reps[1].Update(spec.WriteKey{K: "x", V: "newer"}) // stamped (1,1)
	net.Quiesce()                                     // (1,1) reaches replica 2
	net.Heal()
	net.Quiesce() // then (1,0) arrives behind it
	if st := reps[2].Stats(); st.Masked != 1 {
		t.Fatalf("replica 2 did not mask the session's write: %+v", st)
	}
	sess.Switch(reps[2])
	out, ok := sess.TryQuery(spec.ReadKey{K: "x"})
	if !ok {
		t.Fatal("replica 2 masked the session's write, so it covers it, but refused the session")
	}
	if out != spec.RegVal("newer") {
		t.Fatalf("read %v, want the newer write", out)
	}
}

// TestMaskingRepairCarriesWinners: digests tally only winners, so two
// replicas holding the same winners — one of them with a dead entry not
// yet purged — have equal digests and send each other nothing; a
// snapshot carries the winners alone.
func TestMaskingRepairCarriesWinners(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1})
	reps := Cluster(2, spec.Memory(""), net, ClusterOptions{})
	old, nu := clock.Timestamp{Clock: 1, Proc: 0}, clock.Timestamp{Clock: 2, Proc: 1}
	reps[0].Absorb(old, spec.WriteKey{K: "x", V: "old"})
	reps[0].Absorb(nu, spec.WriteKey{K: "x", V: "new"})
	reps[1].Absorb(nu, spec.WriteKey{K: "x", V: "new"})
	if reps[0].Stats().LogLen != 2 {
		t.Fatalf("replica 0 should still hold its dead entry: %+v", reps[0].Stats())
	}
	if a, b := reps[0].Digest(), reps[1].Digest(); fmt.Sprint(a.Origins) != fmt.Sprint(b.Origins) {
		t.Fatalf("equal winners, unequal digests: %v vs %v", a.Origins, b.Origins)
	}
	for i, r := range reps {
		if reply, err := r.SyncReply(reps[1-i].Digest()); err != nil || reply != nil {
			t.Fatalf("replica %d answers an equal-winner peer with %d bytes (%v)", i, len(reply), err)
		}
	}
	snap, err := reps[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewReplica(Config{ID: 1, N: 2, ADT: spec.Memory(""), Net: transport.NewSim(transport.SimOptions{N: 2})})
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.LogLen != 1 || fresh.Fingerprint() != reps[0].Fingerprint() {
		t.Fatalf("restored %d entries, fingerprint %v; want the one winner, %v", st.LogLen, fresh.Fingerprint(), reps[0].Fingerprint())
	}
}
