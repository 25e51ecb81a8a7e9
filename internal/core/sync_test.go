package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// referenceKeys runs the same one-sided workload on an unfaulted
// cluster and returns the converged state key every faulted run must
// reach. Timestamps are assigned at issue time and the workloads below
// issue everything before delivering anything, so the faulted runs
// carry bit-identical updates and must land on bit-identical state.
func referenceKeys(n, ops int, issue func(reps []*Replica, i int)) string {
	net := transport.NewSim(transport.SimOptions{N: n, Seed: 7})
	reps := Cluster(n, spec.Set(), net, ClusterOptions{})
	for i := 0; i < ops; i++ {
		issue(reps, i)
	}
	net.Quiesce()
	key := reps[0].StateKey()
	for _, r := range reps[1:] {
		if r.StateKey() != key {
			panic("reference cluster diverged")
		}
	}
	return key
}

// TestCrashRecoverOneSided is the first acceptance scenario: a replica
// crashes, misses 10k updates (its inbound messages are dropped, not
// queued), recovers with its pre-crash state, and one anti-entropy pull
// lands everything it missed — final state identical to a run with no
// fault at all.
func TestCrashRecoverOneSided(t *testing.T) {
	const ops = 10000
	issue := func(reps []*Replica, i int) {
		reps[i%2].Update(spec.Ins{V: fmt.Sprint(i % 257)})
	}
	want := referenceKeys(3, ops, issue)

	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 7})
	reps := Cluster(3, spec.Set(), net, ClusterOptions{})
	net.Crash(2)
	for i := 0; i < ops; i++ {
		issue(reps, i)
	}
	net.Quiesce()
	if reps[2].StateKey() == want {
		t.Fatal("crashed replica cannot have converged")
	}
	net.Recover(2)
	net.Quiesce() // nothing queued for p2: redelivery alone cannot repair it
	if reps[2].StateKey() == want {
		t.Fatal("recovery without anti-entropy repaired nothing-to-redeliver loss")
	}
	applied, err := reps[2].SyncFrom(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("anti-entropy pull applied nothing")
	}
	for p, r := range reps {
		if r.StateKey() != want {
			t.Fatalf("p%d did not reach the unfaulted reference state", p)
		}
	}
	if got := reps[2].Stats().SyncApplied; got != uint64(applied) {
		t.Fatalf("SyncApplied stat = %d, want %d", got, applied)
	}
}

// TestPartitionHealOneSided is the second acceptance scenario: one side
// of a partition issues 10k updates; after healing, digest sync reaches
// the reference state before a single queued message is redelivered,
// and the backlog then drains entirely into counted duplicate drops.
func TestPartitionHealOneSided(t *testing.T) {
	const ops = 10000
	issue := func(reps []*Replica, i int) {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i % 257)})
	}
	want := referenceKeys(3, ops, issue)

	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 7})
	reps := Cluster(3, spec.Set(), net, ClusterOptions{})
	net.Partition([]int{0}, []int{1, 2})
	for i := 0; i < ops; i++ {
		issue(reps, i)
	}
	net.Quiesce() // nothing crosses the cut; the backlog queues
	net.Heal()
	for _, p := range []int{1, 2} {
		if _, err := reps[p].SyncFrom(reps[0]); err != nil {
			t.Fatal(err)
		}
		if reps[p].StateKey() != want {
			t.Fatalf("p%d not at reference state after sync, before backlog drain", p)
		}
	}
	net.Quiesce() // the queued broadcasts arrive late, as duplicates
	for p, r := range reps {
		if r.StateKey() != want {
			t.Fatalf("p%d diverged after the backlog drained", p)
		}
	}
	dups := reps[1].Stats().DupDropped + reps[2].Stats().DupDropped
	if dups != 2*ops {
		t.Fatalf("backlog of %d broadcasts x 2 receivers absorbed %d duplicates", ops, dups)
	}
}

// TestRecoverySpansResize crashes a sharded replica, reshapes the whole
// cluster (crashed replica included — a crash suppresses delivery, not
// routing structure) while 4k updates land elsewhere, then recovers:
// the per-shard digest pulls must compose with the new shard count.
func TestRecoverySpansResize(t *testing.T) {
	const ops = 4000
	mk := func() ([]*ShardedReplica, *transport.SimNetwork) {
		net := transport.NewSim(transport.SimOptions{N: 3, Seed: 11})
		return ShardedCluster(3, 2, spec.CounterMap(), net, ClusterOptions{}), net
	}
	issue := func(reps []*ShardedReplica, i int) {
		reps[i%2].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%64), N: 1})
	}

	ref, refNet := mk()
	for i := 0; i < ops; i++ {
		issue(ref, i)
	}
	for _, r := range ref {
		r.Resize(5)
	}
	refNet.Quiesce()
	want := ref[0].StateKey()

	reps, net := mk()
	net.Crash(2)
	for i := 0; i < ops/2; i++ {
		issue(reps, i)
	}
	for _, r := range reps {
		r.Resize(5)
	}
	for i := ops / 2; i < ops; i++ {
		issue(reps, i)
	}
	net.Quiesce()
	net.Recover(2)
	net.Quiesce()
	applied, err := reps[2].SyncFrom(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("post-resize anti-entropy pull applied nothing")
	}
	for p, r := range reps {
		if r.NumShards() != 5 {
			t.Fatalf("p%d at %d shards, want 5", p, r.NumShards())
		}
		if r.StateKey() != want {
			t.Fatalf("p%d did not reach the resized reference state", p)
		}
	}
}

// TestShardedSyncAcrossShardCounts: a pull is the process's, so a
// 2-shard and a 4-shard replica repair each other both ways, with GC off
// and on — entry replies across a partition, and, from a donor compacted
// past an empty requester at the other count, the snapshot fallback —
// and end with one merged state and one fingerprint.
func TestShardedSyncAcrossShardCounts(t *testing.T) {
	adt := spec.CounterMap()
	for _, gc := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			where := fmt.Sprintf("gc=%v seed %d", gc, seed)
			net := transport.NewSim(transport.SimOptions{N: 2, Seed: seed, FIFO: gc})
			mk := func(id, shards int, net transport.ResizableNetwork) *ShardedReplica {
				return NewShardedReplica(ShardedConfig{ID: id, N: 2, Shards: shards, ADT: adt, Net: net, GC: gc, GCEvery: 4})
			}
			reps := []*ShardedReplica{mk(0, 2, net), mk(1, 4, net)}
			rng := rand.New(rand.NewSource(seed))
			write := func(k int) {
				for i := 0; i < k; i++ {
					reps[i%2].Update(resizeUpdate(adt, 2, i%2, i, rng))
					net.StepN(rng.Intn(3))
				}
			}
			same := func(stage string, a, b *ShardedReplica) {
				t.Helper()
				if mergedKey(a) != mergedKey(b) || a.Fingerprint() != b.Fingerprint() {
					t.Fatalf("%s %s: %d and %d shards disagree: %v vs %v", where, stage, a.NumShards(), b.NumShards(), a.Fingerprint(), b.Fingerprint())
				}
			}
			write(100)
			net.Quiesce()
			net.Partition([]int{0}, []int{1})
			write(100)
			for _, pair := range [][2]int{{0, 1}, {1, 0}} {
				if n, err := reps[pair[0]].SyncFrom(reps[pair[1]]); err != nil || n == 0 {
					t.Fatalf("%s: pull %d<-%d landed %d: %v", where, pair[0], pair[1], n, err)
				}
			}
			same("after the pulls", reps[0], reps[1])
			net.Heal()
			write(60)
			net.Quiesce()
			same("healed", reps[0], reps[1])
			if !gc {
				continue
			}
			for _, r := range reps {
				r.ForceCompact()
				if r.Stats().Compacted == 0 {
					t.Fatalf("%s: the %d-shard replica never compacted", where, r.NumShards())
				}
			}
			// A replica restarting empty at the other shard count pulls from
			// each: the donor has compacted past it, so the answer is one
			// snapshot of the donor process.
			for i, donor := range reps {
				if _, err := donor.Shard(0).SyncReply(Digest{}); !errors.Is(err, ErrCompacted) {
					t.Fatalf("%s: donor %d must be compacted past an empty requester, got %v", where, i, err)
				}
				fresh := mk(1-i, 6-donor.NumShards(), transport.NewSim(transport.SimOptions{N: 2, Seed: 1}))
				if _, err := fresh.SyncFrom(donor); err != nil || fresh.Fingerprint().Count == 0 {
					t.Fatalf("%s: snapshot pull from donor %d landed nothing: %v", where, i, err)
				}
				same("after the snapshot pull", fresh, donor)
				if n, err := donor.SyncFrom(fresh); err != nil || n != 0 {
					t.Fatalf("%s: donor %d pulled %d back from its own snapshot: %v", where, i, n, err)
				}
			}
		}
	}
}

// TestSyncReplySendsOnlySuffix checks the wire economy of the digest
// exchange: a receiver holding exactly the donor's prefix is sent only
// the missing suffix, not the donor's whole log.
func TestSyncReplySendsOnlySuffix(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{})
	for i := 0; i < 100; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
	}
	net.Quiesce() // receiver now holds the first 100 as its prefix
	net.Partition([]int{0}, []int{1})
	for i := 100; i < 300; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
	}
	payload, err := reps[0].SyncReply(reps[1].Digest())
	if err != nil {
		t.Fatal(err)
	}
	count, off := binary.Uvarint(payload)
	if off <= 0 {
		t.Fatal("malformed sync reply")
	}
	if count != 200 {
		t.Fatalf("donor sent %d frames, want exactly the 200-entry suffix", count)
	}
	applied, err := reps[1].ApplySync(payload)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 200 || reps[1].StateKey() != reps[0].StateKey() {
		t.Fatalf("suffix landed %d entries (want 200), converged=%v",
			applied, reps[1].StateKey() == reps[0].StateKey())
	}
}

// TestSyncFallsBackToSnapshotWhenDonorCompacted restores a replica from
// a stale backup after the donor (legally, under stability) compacted
// past what the backup missed: SyncReply refuses with ErrCompacted and
// SyncFrom repairs through MergeSnapshot instead.
func TestSyncFallsBackToSnapshotWhenDonorCompacted(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5, FIFO: true})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 8})
	for i := 0; i < 40; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
		reps[1].Update(spec.Ins{V: fmt.Sprint(i + 1000)})
		net.Quiesce()
	}
	stale, err := reps[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 120; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
		reps[1].Update(spec.Ins{V: fmt.Sprint(i + 1000)})
		net.Quiesce()
	}
	reps[0].ForceCompact()
	want := reps[0].StateKey()
	// Restore the backup into a fresh replica — the restart-from-backup
	// move — then pull from the donor that has since compacted.
	restored := NewReplica(Config{
		ID: 1, N: 2, ADT: spec.Set(),
		Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1}),
	})
	if err := restored.Restore(stale); err != nil {
		t.Fatal(err)
	}
	if restored.StateKey() == want {
		t.Fatal("stale restore cannot already match the reference")
	}
	if _, err := reps[0].SyncReply(restored.Digest()); !errors.Is(err, ErrCompacted) {
		t.Fatalf("donor compacted past the backup: want ErrCompacted, got %v", err)
	}
	// The donor may have folded everything into its base, so the repair
	// can arrive as the adopted base rather than as counted entries —
	// state equality is the contract.
	if _, err := restored.SyncFrom(reps[0]); err != nil {
		t.Fatal(err)
	}
	if restored.StateKey() != want {
		t.Fatal("snapshot fallback did not reach the donor's state")
	}
}

// TestSyncIsIdempotent: pulling twice from the same donor applies
// nothing the second time and leaves the state key unchanged.
func TestSyncIsIdempotent(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 9})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{})
	net.Crash(1)
	for i := 0; i < 500; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
	}
	net.Quiesce()
	net.Recover(1)
	first, err := reps[1].SyncFrom(reps[0])
	if err != nil || first == 0 {
		t.Fatalf("first pull: applied=%d err=%v", first, err)
	}
	key := reps[1].StateKey()
	second, err := reps[1].SyncFrom(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	if second != 0 || reps[1].StateKey() != key {
		t.Fatalf("second pull applied %d entries and %s the state",
			second, map[bool]string{true: "kept", false: "changed"}[reps[1].StateKey() == key])
	}
}

// pull runs one anti-entropy pull taken apart, and returns how many
// entries the reply carried and how many of them were new.
func pull(t *testing.T, req, donor *Replica) (carried, applied int) {
	t.Helper()
	payload, err := donor.SyncReply(req.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		count, off := binary.Uvarint(payload)
		if off <= 0 {
			t.Fatal("malformed sync reply")
		}
		carried = int(count)
	}
	if applied, err = req.ApplySync(payload); err != nil {
		t.Fatal(err)
	}
	return carried, applied
}

// rungBound is the digest ladder's promise, recomputed by brute force
// from the two logs: per origin, a reply may repeat only entries the
// requester already holds within about twice the clock depth of the
// lowest disagreement under the requester's top (one rung's worth —
// rung gaps double going down), and nothing at all when the requester
// simply holds a prefix of the donor.
func rungBound(req, donor *Replica) int {
	type holding map[uint64]int
	per := func(r *Replica) []holding {
		hs := make([]holding, r.n)
		for j := range hs {
			hs[j] = holding{}
		}
		for _, e := range r.log.Entries() {
			hs[e.TS.Proc][e.TS.Clock]++
		}
		return hs
	}
	mine, theirs := per(req), per(donor)
	_, baseTS := req.log.Base()
	bound := 0
	for j := range mine {
		var top uint64
		for c := range mine[j] {
			top = max(top, c)
		}
		lowest, differ := top, false
		for c := uint64(baseTS.Clock + 1); c <= top; c++ {
			if mine[j][c] != theirs[j][c] {
				lowest, differ = c, true
				break
			}
		}
		if !differ {
			continue
		}
		span := top - baseTS.Clock
		reach := 2*(top-lowest) + 1 + span>>(ladderRungs-1)
		if top-lowest >= span/2 {
			reach = span // no rung agrees: everything above the base
		}
		for c, k := range theirs[j] {
			if c <= top && c+reach > top && mine[j][c] > 0 {
				bound += k
			}
		}
	}
	return bound
}

// TestSyncReplyDonorBehindRequester: a donor that holds less of an
// origin than the requester used to answer with that origin's whole
// history; the ladder finds the rung both agree at and sends what little
// lies above it.
func TestSyncReplyDonorBehindRequester(t *testing.T) {
	const ops = 6000
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 21, FIFO: true})
	reps := Cluster(3, spec.Log(), net, ClusterOptions{})
	for i := 0; i < ops; i++ {
		reps[i%2].Update(spec.Append{V: fmt.Sprint(i)})
		if i == ops-40 {
			// Everything so far reaches everyone; of the last 40 updates,
			// replica 2 then hears nothing.
			net.Quiesce()
			net.Partition([]int{0, 1}, []int{2})
		}
	}
	net.Quiesce()
	bound := rungBound(reps[0], reps[2])
	carried, applied := pull(t, reps[0], reps[2])
	t.Logf("donor 40 behind: reply carried %d (rung bound %d)", carried, bound)
	if applied != 0 {
		t.Fatalf("a donor that is behind landed %d entries", applied)
	}
	if carried > bound || carried > 100 {
		t.Fatalf("donor 40 updates behind sent %d of its %d entries (bound %d)", carried, reps[2].log.Len(), bound)
	}
	// The other direction is a clean suffix: no duplicate at all.
	if carried, applied = pull(t, reps[2], reps[0]); carried != 39 || applied != 39 {
		t.Fatalf("requester 39 behind: reply carried %d, landed %d", carried, applied)
	}
	if reps[2].StateKey() != reps[0].StateKey() {
		t.Fatal("pull did not converge")
	}
}

// TestSyncReplyRequesterWithHoles drops messages on one link — near the
// top of the log in one run, deep inside it in another — and checks that
// the pull repairs the holes at the cost of one rung, not of the origin
// (rungs reach down to half the origin's span; a hole deeper than that
// is the everything-above-the-base fallback, which twice its depth
// covers anyway).
func TestSyncReplyRequesterWithHoles(t *testing.T) {
	const ops = 8000
	for _, tc := range []struct {
		name   string
		holeAt int
		// most is the most duplicates the reply may carry.
		most int
	}{
		{"near the top", ops - 30, 150},
		{"deep", ops * 5 / 8, ops / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewSim(transport.SimOptions{N: 2, Seed: 23, FIFO: true})
			reps := Cluster(2, spec.Log(), net, ClusterOptions{})
			for i := 0; i < ops; i++ {
				if i == tc.holeAt {
					net.SetLinkFault(0, 1, transport.LinkFault{Drop: 0.5})
				}
				if i == tc.holeAt+12 {
					net.SetLinkFault(0, 1, transport.LinkFault{})
				}
				reps[0].Update(spec.Append{V: fmt.Sprint(i)})
			}
			net.Quiesce()
			missing := ops - reps[1].log.Len()
			if missing == 0 || missing >= 12 {
				t.Fatalf("setup: the faulted link dropped %d of 12 messages; want holes between deliveries", missing)
			}
			bound := rungBound(reps[1], reps[0])
			carried, applied := pull(t, reps[1], reps[0])
			if applied != missing || reps[1].StateKey() != reps[0].StateKey() {
				t.Fatalf("pull landed %d of the %d dropped updates, converged=%v", applied, missing, reps[1].StateKey() == reps[0].StateKey())
			}
			t.Logf("%d holes: reply carried %d (rung bound %d on the duplicates)", missing, carried, bound)
			if dups := carried - applied; dups > bound || dups > tc.most {
				t.Fatalf("reply carried %d duplicates (rung bound %d, most %d)", dups, bound, tc.most)
			}
		})
	}
}

// TestDigestDeepHoleResendBound pins OriginDigest's promise where the
// ladder is coarsest: the lowest rung sits at half an origin's span above
// the base, so a hole below it costs everything above the base. Per
// origin the reply may resend at most twice the clock depth of the
// deepest hole (top − hole + 1) — for a hole near the top, just above and
// just below mid-span, at base+1, and for two holes — and an origin the
// requester holds completely costs nothing. Each pull makes the requester
// complete.
func TestDigestDeepHoleResendBound(t *testing.T) {
	const base, top = 256, 1280 // a span of 1024 clocks above the base
	const mid = base + (top-base)/2
	for _, tc := range []struct {
		name  string
		holes []uint64
	}{
		{"near the top", []uint64{top - 1}},
		{"just above mid-span", []uint64{mid + 1}},
		{"just below mid-span", []uint64{mid - 1}},
		{"at base+1", []uint64{base + 1}},
		{"two holes", []uint64{base + 700, top - 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(id int) *Replica {
				return NewReplica(Config{ID: id, N: 2, ADT: spec.Counter(), Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})})
			}
			donor, req := mk(0), mk(1)
			hole := map[uint64]bool{}
			for _, c := range tc.holes {
				hole[c] = true
			}
			// Origin 0 stamps every clock and has the holes; origin 1 every
			// second clock, all of which the requester holds.
			for cl := uint64(1); cl <= top; cl++ {
				ts := clock.Timestamp{Clock: cl, Proc: 0}
				donor.Absorb(ts, spec.Add{N: 1})
				if !hole[cl] {
					req.Absorb(ts, spec.Add{N: 1})
				}
				if cl%2 == 0 {
					ts.Proc = 1
					donor.Absorb(ts, spec.Add{N: 2})
					req.Absorb(ts, spec.Add{N: 2})
				}
			}
			for _, r := range []*Replica{donor, req} {
				r.mu.Lock()
				r.engine.Compacted(r.log.CompactBelow(base))
				r.mu.Unlock()
			}
			payload, err := donor.SyncReply(req.Digest())
			if err != nil {
				t.Fatal(err)
			}
			sent, err := donor.wire.decodeRun(payload)
			if err != nil {
				t.Fatal(err)
			}
			resent := make([]uint64, 2)
			for _, e := range sent {
				resent[e.TS.Proc]++
			}
			depth := top - slices.Min(tc.holes) + 1
			t.Logf("holes %v: origin 0 resent %d (depth %d), origin 1 resent %d", tc.holes, resent[0], depth, resent[1])
			if resent[0] > 2*depth {
				t.Fatalf("origin 0 resent %d entries for a hole %d deep; the ladder promises at most %d", resent[0], depth, 2*depth)
			}
			if resent[1] != 0 {
				t.Fatalf("origin 1, held completely, resent %d entries", resent[1])
			}
			if applied, err := req.ApplySync(payload); err != nil || applied != len(tc.holes) {
				t.Fatalf("ApplySync landed %d of %d holes: %v", applied, len(tc.holes), err)
			}
			if req.log.Len() != donor.log.Len() || req.StateKey() != donor.StateKey() {
				t.Fatal("requester not complete after the pull")
			}
		})
	}
}

// TestSyncReplyNarrowDigest: origins the digest does not mention are
// origins the requester holds nothing of.
func TestSyncReplyNarrowDigest(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 4})
	reps := Cluster(3, spec.Set(), net, ClusterOptions{})
	for i := 0; i < 90; i++ {
		reps[i%3].Update(spec.Ins{V: fmt.Sprint(i)})
	}
	net.Quiesce()
	d := reps[1].Digest()
	d.Origins = d.Origins[:2]
	payload, err := reps[0].SyncReply(d)
	if err != nil {
		t.Fatal(err)
	}
	if count, _ := binary.Uvarint(payload); count != 30 {
		t.Fatalf("reply carried %d entries, want origin 2's 30", count)
	}
}

// TestHealCarriesAtMostOneRung is the benchmark's sim-heal in small:
// three writers, {0} cut from {1, 2}, a bounded delivery budget so that
// 1 and 2 are each a little behind the other at the heal, then the hub
// pulls from both peers and both pull from the hub. Every pull stays
// within the ladder's bound, and the whole repair carries a few
// duplicates where it used to carry an origin's history.
func TestHealCarriesAtMostOneRung(t *testing.T) {
	const ops = 6000
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: 31})
	reps := Cluster(3, spec.Log(), net, ClusterOptions{})
	net.Partition([]int{0}, []int{1, 2})
	for i := 0; i < ops; i++ {
		reps[i%3].Update(spec.Append{V: fmt.Sprint(i)})
		if i%256 == 255 {
			net.StepN(500)
		}
	}
	if reps[1].log.Len() == reps[2].log.Len() && reps[1].StateKey() == reps[2].StateKey() {
		t.Fatal("setup: replicas 1 and 2 are level; the heal would have no donor that is behind")
	}
	net.Heal()
	totalCarried, totalApplied := 0, 0
	for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}} {
		req, donor := reps[p[0]], reps[p[1]]
		bound := rungBound(req, donor)
		carried, applied := pull(t, req, donor)
		t.Logf("pull %d<-%d: carried %d, applied %d (rung bound %d on the duplicates)", p[0], p[1], carried, applied, bound)
		if dups := carried - applied; dups > bound {
			t.Fatalf("pull %d<-%d: %d duplicates in the reply, rung bound %d", p[0], p[1], dups, bound)
		}
		totalCarried, totalApplied = totalCarried+carried, totalApplied+applied
	}
	if dups := totalCarried - totalApplied; dups*20 > totalApplied {
		t.Fatalf("the heal's replies carried %d duplicates for %d applied", dups, totalApplied)
	}
	want := reps[0].StateKey()
	for p, r := range reps {
		if r.StateKey() != want {
			t.Fatalf("p%d did not converge after the pulls", p)
		}
	}
	net.Quiesce() // the cut's queued originals: duplicates, every one
	for p, r := range reps {
		if r.StateKey() != want {
			t.Fatalf("p%d diverged after the backlog drained", p)
		}
	}
}

// TestApplySyncAllOrNothing: a reply that is malformed anywhere lands
// nothing and moves no counter; the same reply twice lands nothing the
// second time and does not move the version. On every engine, with a
// state folded before the merge lands below it.
func TestApplySyncAllOrNothing(t *testing.T) {
	for _, mk := range []func() Engine{
		func() Engine { return NewUndoEngine() },
		func() Engine { return NewCheckpointEngine(64) },
		func() Engine { return NewReplayEngine() },
	} {
		t.Run(mk().Name(), func(t *testing.T) {
			net := transport.NewSim(transport.SimOptions{N: 2, Seed: 13})
			reps := Cluster(2, spec.Log(), net, ClusterOptions{NewEngine: mk})
			net.Partition([]int{0}, []int{1})
			for i := 0; i < 1200; i++ {
				reps[i%2].Update(spec.Append{V: fmt.Sprint(i)})
			}
			reps[1].Query(spec.ReadLog{}) // fold replica 1's half
			payload, err := reps[0].SyncReply(reps[1].Digest())
			if err != nil {
				t.Fatal(err)
			}
			ver, stats := reps[1].Version(), reps[1].Stats()
			for _, bad := range [][]byte{
				payload[:len(payload)-1],
				append(append([]byte(nil), payload...), 0)[:len(payload)-3],
				{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
				{0x80},
			} {
				if n, err := reps[1].ApplySync(bad); err == nil || n != 0 {
					t.Fatalf("malformed reply: landed %d, err %v", n, err)
				}
				if reps[1].Version() != ver || reps[1].Stats() != stats {
					t.Fatalf("a refused reply moved the replica: version %d -> %d, stats %+v -> %+v", ver, reps[1].Version(), stats, reps[1].Stats())
				}
			}
			first, err := reps[1].ApplySync(payload)
			if err != nil || first != 600 {
				t.Fatalf("first apply: landed %d, err %v", first, err)
			}
			if got := reps[1].Stats(); got.SyncApplied != 600 || got.LateInserts-stats.LateInserts == 0 {
				t.Fatalf("interleaved reply: SyncApplied %d, late inserts %d", got.SyncApplied, got.LateInserts-stats.LateInserts)
			}
			ver = reps[1].Version()
			lines := reps[1].Query(spec.ReadLog{})
			if want := spec.Log().Query(reps[1].log.Replay(), spec.ReadLog{}); !spec.Log().EqualOutput(lines, want) {
				t.Fatal("read after a merge below the folded state differs from a replay")
			}
			again, err := reps[1].ApplySync(payload)
			if err != nil || again != 0 || reps[1].Version() != ver {
				t.Fatalf("second apply: landed %d, err %v, version %d -> %d", again, err, ver, reps[1].Version())
			}
			if got := reps[1].Stats().DupDropped; got != 600 {
				t.Fatalf("second apply counted %d duplicates, want 600", got)
			}
		})
	}
}
