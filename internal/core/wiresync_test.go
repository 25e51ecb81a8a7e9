package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// wireExchange runs one full byte-level anti-entropy pull: requester
// sends its digest, donor answers, requester applies. It returns
// whether the donor had anything to send.
func wireExchange(t *testing.T, requester, donor *ShardedReplica) bool {
	t.Helper()
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		return false
	}
	if err := requester.ApplySync(reply); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestWireSyncRepairsPartitionedSharded is the byte-level version of
// the in-process partition-heal scenario: a 2-process, 3-shard cluster
// partitions, one side issues updates spread across shards, and a
// single DigestPayload/SyncReply/ApplySync exchange — the exact bytes
// the TCP transport moves on reconnect — lands every missing entry.
func TestWireSyncRepairsPartitionedSharded(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 11})
	reps := ShardedCluster(2, 3, spec.CounterMap(), net, ClusterOptions{})
	net.Partition([]int{0}, []int{1})
	for i := 0; i < 400; i++ {
		reps[0].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%17), N: 1})
	}
	net.Quiesce() // nothing crosses the cut
	if reps[1].StateKey() == reps[0].StateKey() {
		t.Fatal("partitioned replica cannot already match")
	}
	w0, w1 := reps[0], reps[1]
	if !wireExchange(t, w1, w0) {
		t.Fatal("donor with 400 unseen updates sent an empty reply")
	}
	if reps[1].StateKey() != reps[0].StateKey() {
		t.Fatal("wire sync exchange did not converge the shards")
	}
	// Converged replicas owe each other nothing: the reply must be the
	// nil fast path, not an all-modes-zero payload.
	if wireExchange(t, w0, w1) {
		t.Fatal("converged donor produced a non-nil reply")
	}
	net.Heal()
	net.Quiesce() // the queued backlog drains as counted duplicates
	if reps[1].StateKey() != reps[0].StateKey() {
		t.Fatal("backlog redelivery after wire sync broke convergence")
	}
}

// TestWireSyncAcrossShardCounts: a digest and its reply are one
// process's, so daemons at 1, 2 and 4 shards repair each other over the
// byte-level exchange in both directions — every pair, with a partition
// to repair and GC off and on — and end with one merged state and one
// fingerprint.
func TestWireSyncAcrossShardCounts(t *testing.T) {
	counts := []int{1, 2, 4}
	for _, gc := range []bool{false, true} {
		for _, a := range counts {
			for _, b := range counts {
				net := transport.NewSim(transport.SimOptions{N: 2, Seed: int64(a*10 + b), FIFO: gc})
				reps := make([]*ShardedReplica, 2)
				for i, shards := range []int{a, b} {
					reps[i] = NewShardedReplica(ShardedConfig{ID: i, N: 2, Shards: shards, ADT: spec.CounterMap(), Net: net, GC: gc, GCEvery: 4})
				}
				for i := 0; i < 60; i++ {
					reps[i%2].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%13), N: 1})
					net.StepN(2)
				}
				net.Quiesce()
				net.Partition([]int{0}, []int{1})
				for i := 0; i < 200; i++ {
					reps[i%2].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%17), N: int64(i%3 + 1)})
				}
				net.Quiesce()
				ws := []*ShardedReplica{reps[0], reps[1]}
				if !wireExchange(t, ws[0], ws[1]) || !wireExchange(t, ws[1], ws[0]) {
					t.Fatalf("gc=%v %d<->%d shards: a partitioned side sent an empty reply", gc, a, b)
				}
				if mergedKey(reps[0]) != mergedKey(reps[1]) || reps[0].Fingerprint() != reps[1].Fingerprint() {
					t.Fatalf("gc=%v %d<->%d shards: the exchange did not converge: %v vs %v", gc, a, b, reps[0].Fingerprint(), reps[1].Fingerprint())
				}
				if wireExchange(t, ws[0], ws[1]) {
					t.Fatalf("gc=%v %d<->%d shards: a converged donor produced a non-nil reply", gc, a, b)
				}
				net.Heal()
				net.Quiesce()
				if mergedKey(reps[0]) != mergedKey(reps[1]) || reps[0].Fingerprint() != reps[1].Fingerprint() {
					t.Fatalf("gc=%v %d<->%d shards: backlog redelivery after the exchange broke convergence", gc, a, b)
				}
			}
		}
	}
}

// TestWireSyncCorruptTailLandsNothing: a reply is decoded whole before
// any shard lands, so a reply whose last bytes are corrupt — here the
// donor's answer to a four-shard requester, cut short or overrun — lands
// nothing, on any shard.
func TestWireSyncCorruptTailLandsNothing(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 3})
	reps := ShardedCluster(2, 4, spec.CounterMap(), net, ClusterOptions{})
	for i := 0; i < 200; i++ {
		reps[0].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%23), N: 1})
	}
	donor, requester := reps[0], reps[1]
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil || reply == nil {
		t.Fatalf("donor reply: %v (nil=%v)", err, reply == nil)
	}
	before := syncStateOf(reps[1])
	for name, bad := range map[string][]byte{
		"cut short": reply[:len(reply)-1],
		"overrun":   append(slices.Clone(reply), 0x01),
		"last body": append(slices.Clone(reply[:len(reply)-3]), 0xff, 0xff, 0xff),
	} {
		if err := requester.ApplySync(bad); err == nil {
			t.Fatalf("%s: a corrupt reply was accepted", name)
		}
		if after := syncStateOf(reps[1]); !after.equal(before) {
			t.Fatalf("%s: a refused reply landed part of itself: %+v -> %+v", name, before, after)
		}
	}
	if err := requester.ApplySync(reply); err != nil || mergedKey(reps[1]) != mergedKey(reps[0]) {
		t.Fatalf("the intact reply did not land: %v", err)
	}
}

// TestWireSyncMalformedPayloads: truncated or garbage bytes in either
// direction must error out cleanly, never panic or corrupt state.
func TestWireSyncMalformedPayloads(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 2})
	w := NewShardedReplica(ShardedConfig{
		ID: 0, N: 1, Shards: 2, ADT: spec.CounterMap(), Net: net,
	})
	w.Update(spec.AddKey{K: "a", N: 3})
	key := w.StateKey()

	digest, err := w.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(digest); cut++ {
		if _, err := w.SyncReply(digest[:cut]); err == nil {
			t.Fatalf("SyncReply accepted a digest truncated to %d bytes", cut)
		}
	}
	for _, junk := range [][]byte{nil, {0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		if _, err := w.SyncReply(junk); err == nil {
			t.Fatalf("SyncReply accepted junk digest %v", junk)
		}
		if err := w.ApplySync(junk); err == nil {
			t.Fatalf("ApplySync accepted junk reply %v", junk)
		}
	}
	// A valid mode with a truncated body.
	if err := w.ApplySync([]byte{syncEntries, 200}); err == nil {
		t.Fatal("ApplySync accepted a reply with a truncated body")
	}
	if w.StateKey() != key {
		t.Fatal("malformed payloads changed replica state")
	}
}

// TestWireSyncSnapshotFallback: when the donor has compacted past the
// requester's horizon, the byte-level reply must carry the snapshot
// mode and MergeSnapshot must land the donor's full state and update-set
// fingerprint — the restart-after-long-downtime repair path over the
// wire.
func TestWireSyncSnapshotFallback(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5, FIFO: true})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 8})
	for i := 0; i < 120; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
		reps[1].Update(spec.Ins{V: fmt.Sprint(i + 1000)})
		net.Quiesce()
	}
	reps[0].ForceCompact()
	want := reps[0].StateKey()
	if _, err := reps[0].Shard(0).SyncReply(Digest{}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("donor must be compacted past an empty requester, got %v", err)
	}

	// A replica restarting empty after long downtime.
	restored := NewShardedReplica(ShardedConfig{
		ID: 1, N: 2, Shards: 1, ADT: spec.Set(),
		Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1}),
	})
	donor, requester := reps[0], restored
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) < 1 || reply[0] != syncSnapshot {
		t.Fatalf("compacted donor must answer with the snapshot mode, got %v", reply[:min(len(reply), 1)])
	}
	if err := requester.ApplySync(reply); err != nil {
		t.Fatal(err)
	}
	if restored.StateKey() != want {
		t.Fatal("snapshot fallback over the wire did not reach the donor's state")
	}
	// The snapshot's base block carries the donor's fingerprint for what
	// it folded, so the restored replica reports the donor's update set.
	if got, want := restored.Fingerprint(), reps[0].Fingerprint(); got != want {
		t.Fatalf("restored fingerprint %v, donor %v", got, want)
	}
}

// goldenPullPair is the log pair the one-shard golden bytes were taken
// from: a donor holding set updates stamped at clocks 1–120, round robin
// over three origins, and a requester holding origin 0 up to clock 100,
// origin 1 but for clock 52 and origin 2 up to clock 60.
func goldenPullPair() (donor, req *ShardedReplica) {
	mk := func(id int, keep func(c uint64, p int) bool) *ShardedReplica {
		sr := NewShardedReplica(ShardedConfig{ID: id, N: 3, Shards: 1, ADT: spec.Set(), Net: transport.NewSim(transport.SimOptions{N: 3, Seed: 1})})
		for c := uint64(1); c <= 120; c++ {
			if p := int(c % 3); keep(c, p) {
				sr.Shard(0).Absorb(clock.Timestamp{Clock: c, Proc: p}, spec.Ins{V: fmt.Sprint(c)})
			}
		}
		return sr
	}
	donor = mk(0, func(uint64, int) bool { return true })
	req = mk(1, func(c uint64, p int) bool {
		switch p {
		case 0:
			return c <= 100
		case 1:
			return c != 52
		}
		return c <= 60
	})
	return donor, req
}

// TestSyncBytesMatchParent pins what a one-shard process puts on the
// wire for a pull to the bytes of the commit before the pull became the
// process's: the digest is the parent's one-shard digest without its
// shard count, and the reply body — Replica.SyncReply, and the wire
// reply behind its mode byte — is the parent's byte for byte.
func TestSyncBytesMatchParent(t *testing.T) {
	hexBytes := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wantDigest := hexBytes(
		"0003073210abc4d9b6ffc4dad0454b19d3d3b2a0cff8b8ae76571de890c5fc8d" +
			"d9e990235d1fe58995fdeced9afe0d602086ccadfeecbfc09770622086ccadfe" +
			"ecbfc097706321e9a3cbe0d1e6aa91b301073b13dab5958fe6f4f0ae21591de8" +
			"efe39be4fde2ee7d682286cddd8deea290baf8016f24f69debd8a4f384ffcd01" +
			"73269c9994b2a1b3d4be900175269c9994b2a1b3d4be90017627cddde581eea7" +
			"a5c103061e0ac8f6939393a8b981732d0ff0d7a187ebb7a690a3013411c0b8e2" +
			"e9f19b98eed9013813fdd9d0e6b794e1a93f3a13fdd9d0e6b794e1a93f3b14b9" +
			"ca9bedea85d2f2d501")
	wantBody := hexBytes(
		"43040101493104040149340407014937050a01493130050d0149313305100149" +
			"3136051301493139051601493232051901493235051c01493238051f01493331" +
			"052201493334052501493337052801493430052b01493433052e014934360531" +
			"01493439053401493532053701493535053a01493538053d01493631053e0249" +
			"3632054001493634054102493635054301493637054402493638054601493730" +
			"054702493731054901493733054a02493734054c01493736054d02493737054f" +
			"0149373905500249383005520149383205530249383305550149383505560249" +
			"3836055801493838055902493839055b01493931055c02493932055e01493934" +
			"055f024939350561014939370562024939380664014931303006650249313031" +
			"06660049313032066701493130330668024931303406690049313035066a0149" +
			"313036066b0249313037066c0049313038066d0149313039066e024931313006" +
			"6f00493131310670014931313206710249313133067200493131340673014931" +
			"3135067402493131360675004931313706760149313138067702493131390678" +
			"0049313230")
	donor, req := goldenPullPair()
	digest, err := req.DigestPayload()
	if err != nil || !bytes.Equal(digest, wantDigest) {
		t.Fatalf("DigestPayload = %x, %v; want %x", digest, err, wantDigest)
	}
	body, err := donor.Shard(0).SyncReply(req.Shard(0).Digest())
	if err != nil || !bytes.Equal(body, wantBody) {
		t.Fatalf("SyncReply = %x, %v; want %x", body, err, wantBody)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil || !bytes.Equal(reply, append([]byte{syncEntries}, wantBody...)) {
		t.Fatalf("wire SyncReply = %x, %v; want the mode byte and %x", reply, err, wantBody)
	}
}
