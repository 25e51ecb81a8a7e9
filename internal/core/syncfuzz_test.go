package core

import (
	"fmt"
	"slices"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// fuzzPair is a donor holding 60 set updates and a requester holding
// the donor's every third, over a transport nobody steps.
func fuzzPair() (donor, req *Replica) {
	reps := Cluster(2, spec.Set(), transport.NewSim(transport.SimOptions{N: 2, Seed: 1}), ClusterOptions{})
	for i := 0; i < 60; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i % 11)})
	}
	for i, e := range reps[0].log.Entries() {
		if i%3 == 0 {
			reps[1].Absorb(e.TS, e.U)
		}
	}
	return reps[0], reps[1]
}

// FuzzApplySync feeds arbitrary bytes to the sync-reply decoder — what a
// reconnecting peer's KindSyncReply frame hands ucserve. It must never
// panic; a reply it refuses must leave the log, its version and the
// counters untouched; one it accepts must land exactly what it reports
// and leave the log in order.
func FuzzApplySync(f *testing.F) {
	donor, req := fuzzPair()
	valid, err := donor.SyncReply(req.Digest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte{0x7f}, valid[1:]...)) // more frames claimed than sent
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Add([]byte{0x02, 0x03, 0x05, 0x01, 'x', 0x03, 0x05, 0x01, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, req := fuzzPair()
		ver, stats := req.Version(), req.Stats()
		held := slices.Clone(req.log.Entries())
		applied, err := req.ApplySync(data)
		if err != nil {
			if applied != 0 || req.Version() != ver || req.Stats() != stats || !slices.Equal(req.log.Entries(), held) {
				t.Fatalf("a refused reply landed %d entries, version %d -> %d", applied, ver, req.Version())
			}
			return
		}
		if got := req.Version() - ver; got != uint64(applied) || req.log.Len() != len(held)+applied {
			t.Fatalf("reported %d landed; version moved by %d, log grew by %d", applied, got, req.log.Len()-len(held))
		}
		entries := req.log.Entries()
		for i := 1; i < len(entries); i++ {
			if !entries[i-1].TS.Less(entries[i].TS) {
				t.Fatalf("log out of order at %d: %s then %s", i, entries[i-1].TS, entries[i].TS)
			}
		}
		// Whatever landed can be digested and served onwards.
		if _, err := req.SyncReply(Digest{}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzWireDigest feeds arbitrary bytes to the wire digest decoder — a
// peer's KindDigest frame. It must never panic and never allocate for a
// count the bytes cannot back; what it accepts must be ladders a donor
// can walk, and answering it must not panic either.
func FuzzWireDigest(f *testing.F) {
	donor, req := fuzzPair()
	wire := func(r *Replica) *WireSync {
		sr := NewShardedReplica(ShardedConfig{ID: 0, N: 2, Shards: 1, ADT: spec.Set(), Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})})
		for _, e := range r.log.Entries() {
			sr.Shard(0).Absorb(e.TS, e.U)
		}
		return NewWireSync(sr)
	}
	w := wire(donor)
	valid, err := wire(req).DigestPayload()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x01, 0x02, 0x09, 0x01, 0x01, 0x04, 0x01, 0x01}) // rungs descending
	f.Add([]byte{0x01, 0x00, 0x01, 0x7f})                                     // 127 rungs claimed
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})                                     // 2^28 shards claimed

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeWireDigest(data)
		if err != nil {
			return
		}
		if len(ds) > len(data) {
			t.Fatalf("%d shards decoded from %d bytes", len(ds), len(data))
		}
		for _, d := range ds {
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
		}
		if _, err := w.SyncReply(data); err != nil && len(ds) == 1 {
			t.Fatalf("a well-formed one-shard digest was refused: %v", err)
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
