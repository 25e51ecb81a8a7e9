package updatec

import (
	"fmt"
	"math/rand"
	"testing"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// unmaskedMemory and unmaskedRegister are the built-in masking specs with
// the capability hidden: the MaskKey field shadows the promoted method,
// so a replica of either logs every update, as plain Algorithm 1 does.
// Every other capability — codec, undo, partitioning, query keys, state
// codec — is kept.
type unmaskedMemory struct {
	spec.MemorySpec
	MaskKey struct{}
}

type unmaskedRegister struct {
	spec.RegisterSpec
	MaskKey struct{}
}

var (
	_ spec.Masking       = spec.MemorySpec{}
	_ spec.Partitionable = unmaskedMemory{}
)

// maskCase is one masking spec with its unmasked twin, a workload and
// the queries a differential run compares.
type maskCase struct {
	name             string
	masked, unmasked spec.UQADT
	update           func(rng *rand.Rand) spec.Update
	queries          []spec.QueryInput
}

func maskCases() []maskCase {
	memReads := []spec.QueryInput{}
	for _, k := range append([]string{"absent"}, equivKeys[:5]...) {
		memReads = append(memReads, spec.ReadKey{K: k})
	}
	return []maskCase{
		{
			name: "memory", masked: spec.Memory("v0"), unmasked: unmaskedMemory{MemorySpec: spec.Memory("v0")},
			update: func(rng *rand.Rand) spec.Update {
				return spec.WriteKey{K: equivKeys[rng.Intn(5)], V: fmt.Sprint(rng.Intn(1000))}
			},
			queries: memReads,
		},
		{
			name: "register", masked: spec.Register("v0"), unmasked: unmaskedRegister{RegisterSpec: spec.Register("v0")},
			update:  func(rng *rand.Rand) spec.Update { return spec.Write{V: fmt.Sprint(rng.Intn(1000))} },
			queries: []spec.QueryInput{spec.Read{}},
		},
	}
}

// maskPair is two simulated clusters on identical schedules (same seed,
// same calls): side 0 runs the masking spec, side 1 its unmasked twin.
type maskPair struct {
	t    *testing.T
	c    maskCase
	nets [2]*transport.SimNetwork
	reps [2][]*core.ShardedReplica
}

func newMaskPair(t *testing.T, c maskCase, seed int64, shards int, gc bool) *maskPair {
	p := &maskPair{t: t, c: c}
	for side, adt := range []spec.UQADT{c.masked, c.unmasked} {
		p.nets[side] = transport.NewSim(transport.SimOptions{N: 3, Seed: seed, FIFO: gc})
		p.reps[side] = core.ShardedCluster(3, shards, adt, p.nets[side], core.ClusterOptions{GC: gc, GCEvery: 8})
	}
	return p
}

// both runs f on each side.
func (p *maskPair) both(f func(reps []*core.ShardedReplica, net *transport.SimNetwork)) {
	for side := range p.reps {
		f(p.reps[side], p.nets[side])
	}
}

// check requires every replica's reads and state key to match across the
// two sides.
func (p *maskPair) check(where string) {
	p.t.Helper()
	for i := range p.reps[0] {
		m, u := p.reps[0][i], p.reps[1][i]
		for _, q := range p.c.queries {
			if a, b := m.Query(q), u.Query(q); !p.c.masked.EqualOutput(a, b) {
				p.t.Fatalf("%s: replica %d query %v: masked %v, unmasked %v", where, i, q, a, b)
			}
		}
		if a, b := m.StateKey(), u.StateKey(); a != b {
			p.t.Fatalf("%s: replica %d state: masked %s, unmasked %s", where, i, a, b)
		}
	}
}

// TestMaskingMatchesUnmasked runs each masking spec beside its unmasked
// twin on identical seeded schedules and compares every read, on every
// path that rewrites or repairs a log: plain delivery; two shards resized
// to four and back with cross-epoch stragglers in flight; GC; a
// partition healed by SyncFrom pulls; Snapshot, Restore and
// MergeSnapshot; and links that deliver messages twice.
func TestMaskingMatchesUnmasked(t *testing.T) {
	paths := []string{"plain", "sharded-resize", "gc", "partition-sync", "snapshot", "dup-faults"}
	for _, c := range maskCases() {
		_, partitionable := c.masked.(spec.Partitionable)
		for _, path := range paths {
			if path == "sharded-resize" && !partitionable {
				continue
			}
			t.Run(c.name+"/"+path, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					maskingRun(t, c, path, seed)
				}
			})
		}
	}
}

func maskingRun(t *testing.T, c maskCase, path string, seed int64) {
	const steps = 500
	shards := 1
	if path == "sharded-resize" {
		shards = 2
	}
	p := newMaskPair(t, c, seed, shards, path == "gc")
	if path == "dup-faults" {
		p.both(func(_ []*core.ShardedReplica, net *transport.SimNetwork) {
			net.SetLinkFaultAll(transport.LinkFault{Dup: 0.3})
		})
	}
	rng := rand.New(rand.NewSource(seed * 31))
	for step := 0; step < steps; step++ {
		u, i, k := c.update(rng), rng.Intn(3), rng.Intn(4)
		p.both(func(reps []*core.ShardedReplica, net *transport.SimNetwork) {
			reps[i].Update(u)
			net.StepN(k)
		})
		where := fmt.Sprintf("seed %d step %d", seed, step)
		if rng.Intn(4) == 0 {
			p.check(where)
		}
		switch {
		case path == "sharded-resize" && (step == 150 || step == 350):
			to := 4
			if step == 350 {
				to = 1
			}
			// Staggered: traffic crosses epochs between the replicas' moves.
			for r := range p.reps[0] {
				k := rng.Intn(3)
				p.both(func(reps []*core.ShardedReplica, net *transport.SimNetwork) {
					reps[r].Resize(to)
					net.StepN(k)
				})
			}
			p.check(where + " after resize")
		case path == "gc" && step%100 == 99:
			p.both(func(reps []*core.ShardedReplica, _ *transport.SimNetwork) {
				for _, r := range reps {
					r.ForceCompact()
				}
			})
			p.check(where + " after compaction")
		case path == "partition-sync" && step == 100:
			p.both(func(_ []*core.ShardedReplica, net *transport.SimNetwork) { net.Partition([]int{0}, []int{1, 2}) })
		case path == "partition-sync" && step == 300:
			p.check(where + " before the heal")
			p.both(func(reps []*core.ShardedReplica, net *transport.SimNetwork) {
				net.Heal()
				for _, dst := range reps {
					for _, src := range reps {
						if _, err := dst.SyncFrom(src); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
			p.check(where + " after the heal's pulls")
		case path == "snapshot" && step%100 == 50:
			var fresh [2]*core.Replica
			for side := range p.reps {
				donor := p.reps[side][0].Shard(0)
				snap, err := donor.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.reps[side][1].Shard(0).MergeSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				fresh[side] = core.NewReplica(core.Config{ID: 2, N: 3, ADT: donor.ADT(), Net: transport.NewSim(transport.SimOptions{N: 3})})
				if err := fresh[side].Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range c.queries {
				if a, b := fresh[0].Query(q), fresh[1].Query(q); !c.masked.EqualOutput(a, b) {
					t.Fatalf("%s: restored query %v: masked %v, unmasked %v", where, q, a, b)
				}
			}
			p.check(where + " after MergeSnapshot")
		}
	}
	p.both(func(_ []*core.ShardedReplica, net *transport.SimNetwork) { net.Quiesce() })
	p.check(fmt.Sprintf("seed %d settled", seed))
	var masked uint64
	for i := range p.reps[0] {
		m, u := p.reps[0][i].Stats(), p.reps[1][i].Stats()
		masked += m.Masked
		if u.Masked != 0 {
			t.Fatalf("seed %d: the unmasked twin masked %d arrivals", seed, u.Masked)
		}
		if path != "gc" && m.LogLen >= u.LogLen {
			t.Fatalf("seed %d: replica %d keeps %d live entries masked, %d unmasked", seed, i, m.LogLen, u.LogLen)
		}
	}
	if masked == 0 {
		t.Fatalf("seed %d: vacuous run, no arrival was masked", seed)
	}
}
