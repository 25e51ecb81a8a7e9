package core

import (
	"fmt"
	"slices"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// fuzzShardCounts are the requester (and donor) shard counts the sync
// fuzzers drive: the one-shard case and a keyed split.
var fuzzShardCounts = []int{1, 4}

// fuzzPair is a 2-shard donor holding 60 set updates and a requester at
// the given shard count holding the donor's every third, over transports
// nobody steps.
func fuzzPair(shards int) (donor, req *ShardedReplica) {
	mk := func(id, shards int) *ShardedReplica {
		return NewShardedReplica(ShardedConfig{ID: id, N: 2, Shards: shards, ADT: spec.Set(),
			Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})})
	}
	donor, req = mk(0, 2), mk(1, shards)
	for i := 0; i < 60; i++ {
		donor.Update(spec.Ins{V: fmt.Sprint(i % 11)})
	}
	var held []Entry
	for s := 0; s < donor.NumShards(); s++ {
		held = append(held, donor.Shard(s).log.Entries()...)
	}
	for i, e := range held {
		if i%3 == 0 {
			req.Shard(req.ShardOf(e.U.(spec.Ins).V)).Absorb(e.TS, e.U)
		}
	}
	return donor, req
}

// syncState is what a refused sync payload must leave untouched.
type syncState struct {
	fp    Fingerprint
	key   string
	stats Stats
	vers  []uint64
	// ver and logLen total the shards' log versions and live lengths.
	ver    uint64
	logLen int
}

func syncStateOf(r *ShardedReplica) syncState {
	st := syncState{fp: r.Fingerprint(), key: mergedKey(r), stats: r.Stats()}
	for s := 0; s < r.NumShards(); s++ {
		st.vers = append(st.vers, r.Shard(s).Version())
		st.ver += r.Shard(s).Version()
		st.logLen += r.Shard(s).log.Len()
	}
	return st
}

func (a syncState) equal(b syncState) bool {
	return a.fp == b.fp && a.key == b.key && a.stats == b.stats && slices.Equal(a.vers, b.vers)
}

// FuzzApplySync feeds arbitrary bytes to the wire sync-reply decoder —
// what a reconnecting peer's KindSyncReply frame hands ucserve — on a
// one-shard and a four-shard requester. It must never panic; a reply it
// refuses must leave the replica as it was, on every shard; one it
// accepts must leave every shard's log in order, each entry in the shard
// that owns its key, and the replica able to answer a digest; a run it
// accepts must land exactly what it counts as landed — over all shards,
// the log versions move and the logs grow by the rise in SyncApplied.
func FuzzApplySync(f *testing.F) {
	for _, shards := range fuzzShardCounts {
		donor, req := fuzzPair(shards)
		digest, err := NewWireSync(req).DigestPayload()
		if err != nil {
			f.Fatal(err)
		}
		valid, err := NewWireSync(donor).SyncReply(digest)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(append([]byte{valid[0], 0x7f}, valid[2:]...)) // more frames claimed than sent
		snap, err := donor.Shard(0).Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{syncSnapshot}, snap...))
	}
	f.Add([]byte{})
	f.Add([]byte{syncNone})
	f.Add([]byte{syncNone, 0x00})
	f.Add([]byte{syncEntries, 0x01, 0x00})
	f.Add([]byte{syncEntries, 0x02, 0x03, 0x05, 0x01, 'x', 0x03, 0x05, 0x01, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range fuzzShardCounts {
			_, req := fuzzPair(shards)
			before := syncStateOf(req)
			if err := NewWireSync(req).ApplySync(data); err != nil {
				if after := syncStateOf(req); !after.equal(before) {
					t.Fatalf("%d shards: a refused reply changed the replica: %v\nbefore %+v\nafter  %+v", shards, err, before, after)
				}
				continue
			}
			if after := syncStateOf(req); data[0] == syncEntries {
				applied := after.stats.SyncApplied - before.stats.SyncApplied
				if moved, grew := after.ver-before.ver, after.logLen-before.logLen; moved != applied || grew != int(applied) {
					t.Fatalf("%d shards: reported %d landed; versions moved by %d, logs grew by %d", shards, applied, moved, grew)
				}
			}
			for s := 0; s < req.NumShards(); s++ {
				entries := req.Shard(s).log.Entries()
				for i, e := range entries {
					if i > 0 && !entries[i-1].TS.Less(e.TS) {
						t.Fatalf("%d shards: shard %d out of order at %d: %s then %s", shards, s, i, entries[i-1].TS, e.TS)
					}
					if own := req.ShardOf(e.U.(spec.Ins).V); own != s {
						t.Fatalf("%d shards: %s landed in shard %d, owner %d", shards, e.TS, s, own)
					}
				}
			}
			// Whatever landed can be digested and served onwards.
			if _, err := NewWireSync(req).SyncReply([]byte{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzWireDigest feeds arbitrary bytes to the wire digest decoder — a
// peer's KindDigest frame. It must never panic and never allocate for a
// count the bytes cannot back; what it accepts must be ladders a donor
// can walk, and a one-shard and a four-shard donor must both answer it.
func FuzzWireDigest(f *testing.F) {
	var donors []*WireSync
	for _, shards := range fuzzShardCounts {
		_, req := fuzzPair(shards)
		donors = append(donors, NewWireSync(req))
		valid, err := NewWireSync(req).DigestPayload()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)-2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x01, 0x02, 0x09, 0x01, 0x01, 0x04, 0x01, 0x01}) // rungs descending
	f.Add([]byte{0x00, 0x01, 0x7f})                                     // 127 rungs claimed
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0x7f})                         // 2^28 origins claimed

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeWireDigest(data)
		if err != nil {
			return
		}
		if len(d.Origins) > len(data) {
			t.Fatalf("%d origins decoded from %d bytes", len(d.Origins), len(data))
		}
		for _, od := range d.Origins {
			if len(od) > ladderRungs {
				t.Fatalf("ladder of %d rungs accepted", len(od))
			}
			for i := 1; i < len(od); i++ {
				if od[i].Clock <= od[i-1].Clock {
					t.Fatalf("ladder not ascending: %v", od)
				}
			}
		}
		for _, w := range donors {
			if _, err := w.SyncReply(data); err != nil {
				t.Fatalf("a well-formed digest was refused: %v", err)
			}
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to both ways a snapshot lands —
// Restore on a fresh replica, MergeSnapshot on one that holds state — for
// a spec that can decode a base state and one that cannot. Neither may
// panic; a snapshot either refuses must leave the replica as it was; one
// it accepts must leave a log in order whose state can be derived.
func FuzzSnapshot(f *testing.F) {
	f.Add(append([]byte{0x04, 0x00, 0x00}, goldenRun(f)...))
	compacted, err := compactedDonor(f)[0].Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compacted)
	f.Add(compacted[:len(compacted)/2])
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x02})
	f.Add([]byte{0x05, 0x03, 0x01, 0x09, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0x01, 0x03, 0x02, 0x00, 0x49}) // live entry under its own base
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	// noState hides every optional capability of the set spec, StateCodec
	// included; the update codec is configured beside it.
	type noState struct{ spec.UQADT }
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, adt := range []spec.UQADT{spec.Set(), noState{spec.Set()}} {
			mk := func() *Replica {
				return NewReplica(Config{ID: 1, N: 2, ADT: adt, Codec: spec.Set(), Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})})
			}
			check := func(name string, r *Replica, land func() error) {
				key, ver, stats := r.StateKey(), r.Version(), r.Stats()
				if err := land(); err != nil {
					if r.StateKey() != key || r.Version() != ver || r.Stats() != stats {
						t.Fatalf("%s on %s: a refused snapshot changed the replica: %v", name, adt.Name(), err)
					}
					return
				}
				entries := r.log.Entries()
				for i := 1; i < len(entries); i++ {
					if !entries[i-1].TS.Less(entries[i].TS) {
						t.Fatalf("%s: log out of order at %d: %s then %s", name, i, entries[i-1].TS, entries[i].TS)
					}
				}
				r.StateKey()
			}
			fresh, held := mk(), mk()
			for i := 0; i < 6; i++ {
				held.Update(spec.Ins{V: fmt.Sprint(i % 4)})
			}
			check("Restore", fresh, func() error { return fresh.Restore(data) })
			check("MergeSnapshot", held, func() error { _, err := held.MergeSnapshot(data); return err })
		}
	})
}
