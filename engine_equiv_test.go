package updatec

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The tests in this file hold the default engine (core.DefaultEngine:
// for every built-in core.UndoEngine, a state kept between reads and
// repaired lazily) to the paper's literal algorithm
// (core.ReplayEngine): same arrivals, same reads, equal states and
// equal query outputs at every read — for every registered object,
// driven by its own workload generator. They hold the update-set
// fingerprint to the canonical state key the same way.

var equivKeys = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// equivObjects returns the registered objects with a workload generator.
func equivObjects(t *testing.T) []Object[Handle] {
	var objs []Object[Handle]
	for _, name := range Objects() {
		obj, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if obj.workload == nil {
			continue
		}
		objs = append(objs, obj)
	}
	if len(objs) < 8 {
		t.Fatalf("only %d registered objects to compare engines on", len(objs))
	}
	return objs
}

// equivQueries lists the query inputs compared on an object: its ω
// query and, for keyed specs, a point query per test key plus one on a
// key no update touches.
func equivQueries(obj Object[Handle]) []spec.QueryInput {
	var qs []spec.QueryInput
	if in, ok := obj.Omega(); ok {
		qs = append(qs, in)
	}
	for _, k := range append([]string{"absent"}, equivKeys...) {
		switch obj.adt.(type) {
		case spec.SetSpec:
			qs = append(qs, spec.Has{V: k})
		case spec.MemorySpec:
			qs = append(qs, spec.ReadKey{K: k})
		case spec.CounterMapSpec:
			qs = append(qs, spec.ReadCtr{K: k})
		}
	}
	return qs
}

// outputLedger remembers query outputs with their rendering at the time
// they were returned: outputs are handed to callers and cached, so a
// fold that keeps mutating its state must never show through them.
type outputLedger struct {
	outs     []spec.QueryOutput
	rendered []string
}

func (l *outputLedger) add(out spec.QueryOutput) {
	l.outs = append(l.outs, out)
	l.rendered = append(l.rendered, fmt.Sprint(out))
}

func (l *outputLedger) check(t *testing.T) {
	t.Helper()
	for i, out := range l.outs {
		if got := fmt.Sprint(out); got != l.rendered[i] {
			t.Fatalf("a returned query output changed after the fact: %s, was %s", got, l.rendered[i])
		}
	}
}

// checkSetMembership asserts Has(v) == (v ∈ Read) on a set state.
func checkSetMembership(t *testing.T, adt spec.UQADT, s spec.State) {
	t.Helper()
	if _, ok := adt.(spec.SetSpec); !ok {
		return
	}
	in := map[string]bool{}
	for _, v := range adt.Query(s, spec.Read{}).(spec.Elems) {
		in[v] = true
	}
	for _, v := range append([]string{"absent"}, equivKeys...) {
		if got := bool(adt.Query(s, spec.Has{V: v}).(spec.Bool)); got != in[v] {
			t.Fatalf("Has(%s) = %v but Read = %v", v, got, adt.Query(s, spec.Read{}))
		}
	}
}

// TestDefaultEngineMatchesReplayEveryObject binds both engines to one log
// and feeds it a timestamp order perturbed by late arrivals of every
// depth — a few entries, a few hundred (around the undo window),
// a third of the log — with reads and compactions at random points.
func TestDefaultEngineMatchesReplayEveryObject(t *testing.T) {
	const n = 1500
	for _, obj := range equivObjects(t) {
		obj := obj
		t.Run(obj.name, func(t *testing.T) {
			adt, qs := obj.adt, equivQueries(obj)
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				// Entry i carries clock i+1; it arrives at time i plus
				// its delay.
				type arrival struct {
					e    core.Entry
					when int
				}
				arrivals := make([]arrival, n)
				for i := range arrivals {
					delay := 0
					switch r := rng.Intn(100); {
					case r < 10:
						delay = 1 + rng.Intn(20)
					case r < 13:
						delay = 20 + rng.Intn(400)
					case i%500 == 250:
						delay = n / 3
					}
					arrivals[i] = arrival{
						e: core.Entry{
							TS: clock.Timestamp{Clock: uint64(i + 1), Proc: i % 3},
							U:  obj.workload(rng, equivKeys[rng.Intn(len(equivKeys))]),
						},
						when: i + delay,
					}
				}
				sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].when < arrivals[j].when })
				// minAhead[i] is the lowest clock still to arrive from i
				// on: compaction must stay below it.
				minAhead := make([]uint64, n+1)
				minAhead[n] = n + 1
				for i := n - 1; i >= 0; i-- {
					minAhead[i] = min(minAhead[i+1], arrivals[i].e.TS.Clock)
				}

				log := core.NewLog(adt)
				fold, replay := core.DefaultEngine(adt), core.NewReplayEngine()
				fold.Bind(adt, log)
				replay.Bind(adt, log)
				var ledger outputLedger
				reads, compactions := 0, 0
				read := func(step int) {
					t.Helper()
					got, want := fold.State(), replay.State()
					if adt.KeyState(got) != adt.KeyState(want) {
						t.Fatalf("seed %d step %d: fold state %s != replay state %s", seed, step, adt.KeyState(got), adt.KeyState(want))
					}
					if s, ok := fold.StateConcurrent(); !ok || adt.KeyState(s) != adt.KeyState(want) {
						t.Fatalf("seed %d step %d: StateConcurrent stale right after State (ok=%v)", seed, step, ok)
					}
					for _, q := range qs {
						a, b := adt.Query(got, q), adt.Query(want, q)
						if !adt.EqualOutput(a, b) {
							t.Fatalf("seed %d step %d: query %v: fold %v != replay %v", seed, step, q, a, b)
						}
						if reads%16 == 0 {
							ledger.add(a)
						}
					}
					checkSetMembership(t, adt, got)
					reads++
				}
				for i, a := range arrivals {
					at := log.Insert(a.e)
					fold.Inserted(at)
					replay.Inserted(at)
					if rng.Intn(8) == 0 {
						read(i)
					}
					if rng.Intn(15) == 0 {
						if cut := log.CompactBelow(minAhead[i+1] - 1); cut > 0 {
							fold.Compacted(cut)
							replay.Compacted(cut)
							compactions++
						}
						if rng.Intn(2) == 0 {
							read(i)
						}
					}
				}
				read(n)
				ledger.check(t)
				if reads < 100 || compactions < 5 {
					t.Fatalf("seed %d: vacuous run: %d reads, %d compactions", seed, reads, compactions)
				}
			}
		})
	}
}

// equivPair is two simulated clusters on identical schedules (same
// seed, same calls), one per engine.
type equivPair struct {
	t            *testing.T
	obj          Object[Handle]
	qs           []spec.QueryInput
	nets         [2]*transport.SimNetwork
	fold, replay []*core.ShardedReplica
	ledger       outputLedger
	reads        int
	// canSnapshot: a compacted log snapshots only through a StateCodec.
	canSnapshot bool
}

func newEquivPair(t *testing.T, obj Object[Handle], seed int64, gc bool) *equivPair {
	p := &equivPair{t: t, obj: obj, qs: equivQueries(obj)}
	_, hasStateCodec := obj.adt.(spec.StateCodec)
	p.canSnapshot = hasStateCodec || !gc
	shards := 1
	if obj.partitionable() {
		shards = 2
	}
	build := func(i int, mk func() core.Engine) []*core.ShardedReplica {
		p.nets[i] = transport.NewSim(transport.SimOptions{N: 3, Seed: seed, FIFO: gc})
		return core.ShardedCluster(3, shards, obj.adt, p.nets[i], core.ClusterOptions{
			NewEngine: mk, Codec: obj.codec, GC: gc, GCEvery: 8,
		})
	}
	p.fold = build(0, nil)
	p.replay = build(1, func() core.Engine { return core.NewReplayEngine() })
	return p
}

// both runs f on replica i of each cluster.
func (p *equivPair) both(i int, f func(r *core.ShardedReplica)) {
	f(p.fold[i])
	f(p.replay[i])
}

func (p *equivPair) step(k int) {
	p.nets[0].StepN(k)
	p.nets[1].StepN(k)
}

// read compares replica i of the two clusters.
func (p *equivPair) read(i int, where string) {
	p.t.Helper()
	adt := p.obj.adt
	for _, q := range p.qs {
		a, b := p.fold[i].Query(q), p.replay[i].Query(q)
		if !adt.EqualOutput(a, b) {
			p.t.Fatalf("%s: replica %d query %v: fold %v != replay %v", where, i, q, a, b)
		}
		if p.reads%8 == 0 {
			p.ledger.add(a)
		}
	}
	if a, b := p.fold[i].StateKey(), p.replay[i].StateKey(); a != b {
		p.t.Fatalf("%s: replica %d state key: fold %s != replay %s", where, i, a, b)
	}
	checkSetMembership(p.t, adt, p.fold[i].MergedState())
	p.reads++
}

func (p *equivPair) readAll(where string) {
	p.t.Helper()
	for i := range p.fold {
		p.read(i, where)
	}
}

// TestReplicasMatchReplayAcrossRebinds runs whole replicas — real
// delivery under the seeded adversary, with and without stability GC —
// through the paths that rewrite a log behind its engine: compaction,
// Resize (both directions) with pulls between replicas at different
// shard counts, MergeSnapshot onto a replica that holds
// state, Restore into a fresh one, and a partition both sides write
// through, healed by digest pulls whose replies merge in below what the
// engines folded.
func TestReplicasMatchReplayAcrossRebinds(t *testing.T) {
	const steps = 600
	for _, obj := range equivObjects(t) {
		obj := obj
		for _, gc := range []bool{false, true} {
			gc := gc
			t.Run(fmt.Sprintf("%s/gc=%v", obj.name, gc), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					p := newEquivPair(t, obj, seed, gc)
					rng := rand.New(rand.NewSource(seed * 7919))
					for step := 0; step < steps; step++ {
						u := obj.workload(rng, equivKeys[rng.Intn(len(equivKeys))])
						p.both(rng.Intn(3), func(r *core.ShardedReplica) { r.Update(u) })
						p.step(rng.Intn(4))
						if rng.Intn(3) == 0 {
							p.read(rng.Intn(3), fmt.Sprintf("seed %d step %d", seed, step))
						}
						where := fmt.Sprintf("seed %d step %d", seed, step)
						switch step {
						case 150:
							for i := range p.fold {
								p.both(i, func(r *core.ShardedReplica) { r.ForceCompact() })
							}
							p.readAll(where + " after compaction")
						case 250, 520:
							if !obj.partitionable() {
								break
							}
							to := 4
							if step == 520 {
								to = 1
							}
							// Staggered, as the simulator allows: traffic
							// crosses epochs between the replicas' moves,
							// and a moved replica and the next, not yet
							// moved, pull from each other across counts.
							for i := range p.fold {
								p.both(i, func(r *core.ShardedReplica) { r.Resize(to) })
								p.step(rng.Intn(3))
								if i+1 < len(p.fold) {
									p.pull(i, i+1)
									p.pull(i+1, i)
								}
							}
							p.readAll(where + " after resize")
						case 350:
							if p.canSnapshot {
								p.mergeSnapshot(1, 0)
								p.readAll(where + " after MergeSnapshot")
							}
						case 370:
							// Without GC no donor compacts, so every pull
							// is an entry reply and lands as a merge; with
							// GC a donor that compacted past the puller
							// answers with a snapshot.
							p.nets[0].Partition([]int{0}, []int{1, 2})
							p.nets[1].Partition([]int{0}, []int{1, 2})
						case 440:
							p.readAll(where + " before the heal")
							p.healAndSync()
							p.readAll(where + " after the heal's pulls")
						case 450:
							if p.canSnapshot {
								p.restoreFresh(0, where)
							}
						}
					}
					p.nets[0].Quiesce()
					p.nets[1].Quiesce()
					p.readAll(fmt.Sprintf("seed %d settled", seed))
					if a, b := p.fold[0].StateKey(), p.fold[2].StateKey(); a != b {
						t.Fatalf("seed %d: fold cluster did not converge: %s vs %s", seed, a, b)
					}
					p.ledger.check(t)
				}
			})
		}
	}
}

// mergeSnapshot merges every shard of replica src into replica dst, on
// both clusters.
func (p *equivPair) mergeSnapshot(dst, src int) {
	p.t.Helper()
	for _, reps := range [][]*core.ShardedReplica{p.fold, p.replay} {
		for s := 0; s < reps[src].NumShards(); s++ {
			snap, err := reps[src].Shard(s).Snapshot()
			if err != nil {
				p.t.Fatal(err)
			}
			if _, err := reps[dst].Shard(s).MergeSnapshot(snap); err != nil {
				p.t.Fatal(err)
			}
		}
	}
}

// pull has replica dst pull from replica src, on both clusters.
func (p *equivPair) pull(dst, src int) {
	p.t.Helper()
	for _, reps := range [][]*core.ShardedReplica{p.fold, p.replay} {
		if _, err := reps[dst].SyncFrom(reps[src]); err != nil {
			p.t.Fatal(err)
		}
	}
}

// healAndSync removes the cut and runs the anti-entropy round of
// Cluster.Heal — replica 0 pulls from every peer, every peer from it —
// on both clusters.
func (p *equivPair) healAndSync() {
	p.t.Helper()
	for c, reps := range [][]*core.ShardedReplica{p.fold, p.replay} {
		p.nets[c].Heal()
		for pass := 0; pass < 2; pass++ {
			for _, peer := range reps[1:] {
				dst, src := reps[0], peer
				if pass == 1 {
					dst, src = src, dst
				}
				if _, err := dst.SyncFrom(src); err != nil {
					p.t.Fatal(err)
				}
			}
		}
	}
}

// restoreFresh restores shard 0 of replica src into a fresh replica per
// engine, reads it, then lands the same late arrivals in both and reads
// again.
func (p *equivPair) restoreFresh(src int, where string) {
	p.t.Helper()
	adt := p.obj.adt
	snap, err := p.fold[src].Shard(0).Snapshot()
	if err != nil {
		p.t.Fatal(err)
	}
	fresh := func(eng core.Engine) *core.Replica {
		r := core.NewReplica(core.Config{
			ID: 0, N: 3, ADT: adt, Codec: p.obj.codec, Engine: eng,
			Net: transport.NewSim(transport.SimOptions{N: 3, Seed: 1}),
		})
		if err := r.Restore(snap); err != nil {
			p.t.Fatal(err)
		}
		return r
	}
	f, r := fresh(nil), fresh(core.NewReplayEngine())
	compare := func(stage string) {
		p.t.Helper()
		if a, b := f.StateKey(), r.StateKey(); a != b {
			p.t.Fatalf("%s restored %s: fold %s != replay %s", where, stage, a, b)
		}
		for _, q := range p.qs {
			if a, b := f.Query(q), r.Query(q); !adt.EqualOutput(a, b) {
				p.t.Fatalf("%s restored %s: query %v: fold %v != replay %v", where, stage, q, a, b)
			}
		}
	}
	compare("fresh")
	// Arrivals above everything restored, in an order that makes the
	// second half late against the first.
	rng := rand.New(rand.NewSource(int64(len(snap))))
	top := f.Stats().Clock
	for _, off := range []uint64{10, 12, 14, 11, 13, 5, 20} {
		ts := clock.Timestamp{Clock: top + off, Proc: 1}
		u := p.obj.workload(rng, equivKeys[rng.Intn(len(equivKeys))])
		f.Absorb(ts, u)
		r.Absorb(ts, u)
		compare(fmt.Sprintf("after absorbing clock +%d", off))
	}
}

// TestFingerprintSoundEveryObject holds the update-set fingerprint to the
// canonical state key on every registered object. Whenever two replicas'
// fingerprints are equal their StateKeys are too, and every route to one
// update set ends at one fingerprint: the adversary's delivery orders,
// injected duplicates, a partition healed by SyncFrom pulls, GC
// compaction, Snapshot+Restore, MergeSnapshot onto a replica holding an
// older snapshot (and an older snapshot onto a newer one) and a pull from
// a compacted donor, which falls back to a snapshot. The fingerprint is
// the process's, so it stays defined across a staggered Resize and the
// cross-epoch deliveries around it.
func TestFingerprintSoundEveryObject(t *testing.T) {
	for _, obj := range equivObjects(t) {
		obj := obj
		for _, gc := range []bool{false, true} {
			gc := gc
			t.Run(fmt.Sprintf("%s/gc=%v", obj.name, gc), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					fingerprintRun(t, obj, seed, gc)
				}
			})
		}
	}
}

func fingerprintRun(t *testing.T, obj Object[Handle], seed int64, gc bool) {
	t.Helper()
	_, hasStateCodec := obj.adt.(spec.StateCodec)
	canSnapshot := hasStateCodec || !gc
	shards := 1
	if obj.partitionable() {
		shards = 2
	}
	net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed, FIFO: gc})
	reps := core.ShardedCluster(3, shards, obj.adt, net, core.ClusterOptions{Codec: obj.codec, GC: gc, GCEvery: 8})
	if !gc {
		// Compaction needs exactly-once delivery; without it every link
		// delivers a fifth of its messages twice.
		net.SetLinkFaultAll(transport.LinkFault{Dup: 0.2})
	}
	rng := rand.New(rand.NewSource(seed * 104729))
	update := func(r *core.ShardedReplica) {
		r.Update(obj.workload(rng, equivKeys[rng.Intn(len(equivKeys))]))
	}
	agreed := 0
	// compare checks equal fingerprints ⇒ equal state keys on every pair;
	// replicas at different shard counts compare their merged states.
	compare := func(where string) {
		t.Helper()
		fps := make([]core.Fingerprint, len(reps))
		for i, r := range reps {
			fps[i] = r.Fingerprint()
		}
		for i := range reps {
			for j := i + 1; j < len(reps); j++ {
				if fps[i] != fps[j] {
					continue
				}
				agreed++
				a, b := reps[i].StateKey(), reps[j].StateKey()
				if reps[i].NumShards() != reps[j].NumShards() {
					a, b = obj.adt.KeyState(reps[i].MergedState()), obj.adt.KeyState(reps[j].MergedState())
				}
				if a != b {
					t.Fatalf("%s: replicas %d and %d share fingerprint %v but not state: %s vs %s", where, i, j, fps[i], a, b)
				}
			}
		}
	}
	// settled checks that a quiesced cluster agrees on one fingerprint.
	settled := func(where string) {
		t.Helper()
		compare(where)
		for i, r := range reps[1:] {
			if got, want := r.Fingerprint(), reps[0].Fingerprint(); got != want {
				t.Fatalf("%s: replica %d fingerprint %v, replica 0 %v", where, i+1, got, want)
			}
		}
	}
	var early [][]byte // replica 0's shard snapshots, mid-run
	for step := 0; step < 400; step++ {
		update(reps[rng.Intn(3)])
		net.StepN(rng.Intn(4))
		where := fmt.Sprintf("seed %d step %d", seed, step)
		if rng.Intn(3) == 0 {
			compare(where)
		}
		if step%50 == 49 {
			net.Quiesce()
			compare(where + " quiesced")
		}
		switch step {
		case 100:
			if gc {
				for _, r := range reps {
					r.ForceCompact()
				}
			}
		case 150:
			if !gc {
				net.Partition([]int{0}, []int{1, 2})
			}
		case 200:
			if canSnapshot {
				early = shardSnapshots(t, reps[0])
			}
		case 300:
			if !gc {
				net.Heal()
				for _, dst := range reps {
					for _, src := range reps {
						if _, err := dst.SyncFrom(src); err != nil {
							t.Fatal(err)
						}
					}
				}
				compare(where + " after the heal's pulls")
			}
		}
	}
	net.Quiesce()
	where := fmt.Sprintf("seed %d settled", seed)
	settled(where)
	if agreed < 20 {
		t.Fatalf("seed %d: vacuous run: fingerprints agreed on only %d pairs", seed, agreed)
	}

	if canSnapshot {
		final := shardSnapshots(t, reps[0])
		for s := range final {
			donor := reps[0].Shard(s)
			fresh := func() *core.Replica {
				return core.NewReplica(core.Config{
					ID: 1, N: 3, ADT: obj.adt, Codec: obj.codec,
					Net: transport.NewSim(transport.SimOptions{N: 3, Seed: 1}),
				})
			}
			restore := func(r *core.Replica, snap []byte) *core.Replica {
				if err := r.Restore(snap); err != nil {
					t.Fatal(err)
				}
				return r
			}
			merge := func(r *core.Replica, snap []byte) *core.Replica {
				if _, err := r.MergeSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				return r
			}
			pulled := fresh()
			if _, err := pulled.SyncFrom(donor); err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]*core.Replica{
				"Restore":                        restore(fresh(), final[s]),
				"MergeSnapshot onto an older":    merge(restore(fresh(), early[s]), final[s]),
				"an older MergeSnapshot onto it": merge(restore(fresh(), final[s]), early[s]),
				"SyncFrom into a fresh replica":  pulled,
			} {
				if got, want := r.Fingerprint(), donor.Fingerprint(); got != want {
					t.Fatalf("%s shard %d: %s fingerprint %v, donor %v", where, s, name, got, want)
				}
				if got, want := r.StateKey(), donor.StateKey(); got != want {
					t.Fatalf("%s shard %d: %s state %s, donor %s", where, s, name, got, want)
				}
			}
		}
	}

	if obj.partitionable() {
		// Replica 0 resizes first: until the others follow, every broadcast
		// between it and them crosses epochs, both ways.
		for i, r := range reps {
			r.Resize(4)
			for step := 0; step < 30; step++ {
				update(reps[rng.Intn(3)])
				net.StepN(rng.Intn(4))
				if step%5 == 0 {
					compare(fmt.Sprintf("%s, %d of 3 resized, step %d", where, i+1, step))
				}
			}
			net.Quiesce()
			settled(fmt.Sprintf("%s, %d of 3 resized", where, i+1))
		}
	}
}

// shardSnapshots returns a Snapshot of every shard of r.
func shardSnapshots(t *testing.T, r *core.ShardedReplica) [][]byte {
	t.Helper()
	snaps := make([][]byte, r.NumShards())
	for s := range snaps {
		var err error
		if snaps[s], err = r.Shard(s).Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	return snaps
}

// TestShardedContainsAsksOneShard: Contains is a keyed point query, so
// a sharded cluster serves it from the shard owning the element alone —
// no merged-state fold, no other shard's cache touched — and a repeat
// read is a cache hit there.
func TestShardedContainsAsksOneShard(t *testing.T) {
	const shards = 4
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5})
	reps := core.ShardedCluster(2, shards, spec.Set(), net, core.ClusterOptions{})
	set := SetObject().wrap(reps[0])
	for i := 0; i < 64; i++ {
		set.Insert(fmt.Sprint("k", i))
	}
	net.Quiesce()
	type counters struct{ hits, misses uint64 }
	snapshot := func() []counters {
		out := make([]counters, shards)
		for s := range out {
			out[s].hits, out[s].misses = reps[0].Shard(s).QueryCacheStats()
		}
		return out
	}
	for _, key := range []string{"k7", "k8", "nope"} {
		owner := reps[0].ShardOf(key)
		before := snapshot()
		want := key != "nope"
		if set.Contains(key) != want || set.Contains(key) != want {
			t.Fatalf("Contains(%s) != %v", key, want)
		}
		after := snapshot()
		for s := range after {
			dh, dm := after[s].hits-before[s].hits, after[s].misses-before[s].misses
			switch {
			case s == owner && (dh != 1 || dm != 1):
				t.Fatalf("Contains(%s): owning shard %d saw %d hits, %d misses; want 1, 1", key, s, dh, dm)
			case s != owner && (dh != 0 || dm != 0):
				t.Fatalf("Contains(%s): shard %d is not the owner (%d) but its cache moved (%d hits, %d misses)", key, s, owner, dh, dm)
			}
		}
	}
	if folds, reads := reps[0].MergedCacheStats(); folds != 0 || reads != 0 {
		t.Fatalf("Contains went through the merged state: %d folds, %d reads", folds, reads)
	}
	asked := map[int]bool{reps[0].ShardOf("k7"): true, reps[0].ShardOf("k8"): true, reps[0].ShardOf("nope"): true}
	for s := 0; s < shards; s++ {
		if folded := reps[0].Shard(s).Stats().Folded; asked[s] != (folded > 0) {
			t.Fatalf("shard %d: asked=%v but its fold cursor is %d", s, asked[s], folded)
		}
	}
}

// TestCachedContainsAllocatesNothing: a repeat membership query on a
// settled replica is a version compare and a map hit. The query input
// is boxed once, outside the measured loop: Set.Contains builds it per
// call, and that 16-byte box is the one allocation a Contains makes.
func TestCachedContainsAllocatesNothing(t *testing.T) {
	cluster, handles, err := New(2, SetObject().Dynamic(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		handles[0].Update(spec.Ins{V: fmt.Sprint(i)})
	}
	cluster.Settle()
	present, absent := QueryInput(spec.Has{V: "7"}), QueryInput(spec.Has{V: "x"})
	read := func() {
		if handles[1].Query(present) != spec.Bool(true) || handles[1].Query(absent) != spec.Bool(false) {
			t.Fatal("wrong membership")
		}
	}
	read()
	hits0, _ := cluster.CacheStats()
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("cached Contains allocates: %v allocs/op", allocs)
	}
	if hits, _ := cluster.CacheStats(); hits-hits0 < 400 {
		t.Fatalf("Contains bypassed the query cache: %d hits", hits-hits0)
	}
	set := SetObject().wrap(handles[1])
	if allocs := testing.AllocsPerRun(200, func() { set.Contains("7") }); allocs > 1 {
		t.Fatalf("Set.Contains allocates more than its boxed input: %v allocs/op", allocs)
	}
}

// TestRecordedContainsClassifiesSUC: the membership query is a query
// like any other to the recorder and the deciders.
func TestRecordedContainsClassifiesSUC(t *testing.T) {
	cluster, sets, err := New(3, SetObject(), WithSeed(11), WithRecording())
	if err != nil {
		t.Fatal(err)
	}
	sets[0].Insert("1")
	sets[1].Insert("2")
	if sets[2].Contains("1") {
		t.Fatal("nothing was delivered yet")
	}
	cluster.Deliver()
	sets[1].Delete("1")
	sets[0].Contains("2")
	sets[1].Contains("1")
	cluster.Settle()
	for _, s := range sets {
		if s.Contains("1") || !s.Contains("2") {
			t.Fatal("wrong converged membership")
		}
	}
	text, err := cluster.History()
	if err != nil {
		t.Fatal(err)
	}
	cls, err := cluster.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !cls.StrongUpdateConsistent {
		t.Fatalf("a recorded run with Contains is not SUC:\n%s\n%+v", text, cls)
	}
}

// TestConcurrentReadersUnderGC hammers GC'd live replicas with
// point and whole-state reads while writers run: under -race this is
// the shared-lock read path against deliveries, lazy repairs and
// compaction shifts.
func TestConcurrentReadersUnderGC(t *testing.T) {
	cluster, sets, err := New(3, SetObject(), WithGC())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if i%5 == 4 {
					sets[w].Delete(fmt.Sprint(i % 23))
				} else {
					sets[w].Insert(fmt.Sprint(i % 23))
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				sets[g%3].Contains(fmt.Sprint(i % 23))
				if i%10 == 0 {
					sets[g%3].Elements()
				}
			}
		}()
	}
	wg.Wait()
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("GC'd live cluster diverged")
	}
	for _, s := range sets {
		in := map[string]bool{}
		for _, v := range s.Elements() {
			in[v] = true
		}
		for i := 0; i < 23; i++ {
			if v := fmt.Sprint(i); s.Contains(v) != in[v] {
				t.Fatalf("Contains(%s) = %v disagrees with Elements %v", v, !in[v], s.Elements())
			}
		}
	}
}
