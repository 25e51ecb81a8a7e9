package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// wireExchange runs one full byte-level anti-entropy pull: requester
// sends its digest, donor answers, requester applies. It returns
// whether the donor had anything to send.
func wireExchange(t *testing.T, requester, donor *WireSync) bool {
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
	w0, w1 := NewWireSync(reps[0]), NewWireSync(reps[1])
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

// TestWireSyncShardCountMismatch: both directions of the exchange must
// refuse a peer with a different shard count — wire clusters do not
// resize live, so a mismatch is misconfiguration.
func TestWireSyncShardCountMismatch(t *testing.T) {
	mk := func(shards int) *WireSync {
		net := transport.NewSim(transport.SimOptions{N: 1, Seed: 1})
		return NewWireSync(NewShardedReplica(ShardedConfig{
			ID: 0, N: 1, Shards: shards, ADT: spec.CounterMap(), Net: net,
		}))
	}
	two, four := mk(2), mk(4)
	digest4, err := four.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.SyncReply(digest4); err == nil {
		t.Fatal("SyncReply accepted a digest with the wrong shard count")
	}
	// A valid reply for 4 shards must be refused by a 2-shard applier.
	four.r.Update(spec.AddKey{K: "x", N: 1})
	emptyDigest, err := mk(4).DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := four.SyncReply(emptyDigest)
	if err != nil || reply == nil {
		t.Fatalf("donor reply: %v (nil=%v)", err, reply == nil)
	}
	if err := two.ApplySync(reply); err == nil {
		t.Fatal("ApplySync accepted a reply with the wrong shard count")
	}
}

// TestWireSyncMalformedPayloads: truncated or garbage bytes in either
// direction must error out cleanly, never panic or corrupt state.
func TestWireSyncMalformedPayloads(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 2})
	w := NewWireSync(NewShardedReplica(ShardedConfig{
		ID: 0, N: 1, Shards: 2, ADT: spec.CounterMap(), Net: net,
	}))
	w.r.Update(spec.AddKey{K: "a", N: 3})
	key := w.r.StateKey()

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
	// A structurally valid header with a truncated body.
	if err := w.ApplySync([]byte{2, syncEntries, 200}); err == nil {
		t.Fatal("ApplySync accepted a reply with a truncated shard body")
	}
	if w.r.StateKey() != key {
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
	donor, requester := NewWireSync(reps[0]), NewWireSync(restored)
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) < 2 || reply[1] != syncSnapshot {
		t.Fatalf("compacted donor must answer with the snapshot mode, got %v", reply[:min(len(reply), 2)])
	}
	if err := requester.ApplySync(reply); err != nil {
		t.Fatal(err)
	}
	if restored.StateKey() != want {
		t.Fatal("snapshot fallback over the wire did not reach the donor's state")
	}
	// The snapshot's base block carries the donor's fingerprint for what
	// it folded, so the restored replica reports the donor's update set.
	got, ok := restored.Fingerprint()
	if wantFP, _ := reps[0].Fingerprint(); !ok || !slices.Equal(got, wantFP) {
		t.Fatalf("restored fingerprint %v (ok=%v), donor %v", got, ok, wantFP)
	}
}
