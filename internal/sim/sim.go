// Package sim is the execution harness of the reproduction: it drives
// clusters of replicated-set implementations (the update consistent
// set of internal/core and the §VI baselines of internal/crdt) through
// scripted or randomized workloads on the deterministic transport,
// injects crashes and partitions, records the resulting distributed
// histories for the consistency deciders, and reports convergence.
package sim

import (
	"fmt"
	"math/rand"

	"updatec/internal/core"
	"updatec/internal/crdt"
	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// SetKind names a replicated-set implementation.
type SetKind string

// The available set implementations.
const (
	// UCSet is Algorithm 1 over the set UQ-ADT (replay engine).
	UCSet SetKind = "uc-set"
	// UCSetCheckpoint and UCSetUndo are Algorithm 1 with the §VII-C
	// optimized query engines.
	UCSetCheckpoint SetKind = "uc-set/ckpt"
	UCSetUndo       SetKind = "uc-set/undo"
	// Eager applies operations in delivery order with no conflict
	// resolution (diverges; Proposition 1's foil).
	Eager SetKind = "eager"
	// The §VI CRDT baselines.
	GSet    SetKind = "g-set"
	TwoPSet SetKind = "2p-set"
	PNSet   SetKind = "pn-set"
	CSet    SetKind = "c-set"
	ORSet   SetKind = "or-set"
	LWWSet  SetKind = "lww-set"
)

// SetKinds lists every implementation, update consistent first.
func SetKinds() []SetKind {
	return []SetKind{UCSet, UCSetCheckpoint, UCSetUndo, Eager, GSet, TwoPSet, PNSet, CSet, ORSet, LWWSet}
}

// UpdateConsistent reports whether the kind is Algorithm 1 over the
// set spec itself, the only kinds Scenario.Shards applies to.
func (k SetKind) UpdateConsistent() bool {
	return k == UCSet || k == UCSetCheckpoint || k == UCSetUndo
}

// impl is how a kind runs: the spec its replicas fold (nil for the
// eager set, the one kind that keeps no log), their query engine (nil:
// the spec's default) and the update a process issues for a scripted
// I(v) or D(v).
type impl struct {
	adt    spec.UQADT
	engine func() core.Engine
	issue  crdt.Issue
}

var impls = map[SetKind]impl{
	UCSet:           {spec.Set(), func() core.Engine { return core.NewReplayEngine() }, crdt.IssueSet},
	UCSetCheckpoint: {spec.Set(), func() core.Engine { return core.NewCheckpointEngine(64) }, crdt.IssueSet},
	UCSetUndo:       {spec.Set(), nil, crdt.IssueSet},
	Eager:           {nil, nil, crdt.IssueSet},
	GSet:            {spec.GSet(), nil, crdt.IssueSet},
	TwoPSet:         {crdt.TwoPhaseSet(), nil, crdt.IssueSet},
	PNSet:           {crdt.CounterSet(), nil, crdt.IssuePN},
	CSet:            {crdt.CounterSet(), nil, crdt.IssueC},
	ORSet:           {crdt.ORSet(), nil, crdt.IssueOR},
	LWWSet:          {crdt.LWWSet(), nil, crdt.IssueLWW},
}

// replica is one process's copy of a set, whatever the kind:
// *core.Replica, *core.ShardedReplica and *crdt.NaiveSet satisfy it.
type replica interface {
	Update(spec.Update)
	Query(spec.QueryInput) spec.QueryOutput
}

// replicas builds the scenario's replicas on the network: one
// core.Replica per process, a core.ShardedReplica when sc.Shards > 1,
// or the eager set's crdt.NaiveSet.
func replicas(sc Scenario, im impl, net *transport.SimNetwork) []replica {
	reps := make([]replica, sc.N)
	opt := core.ClusterOptions{NewEngine: im.engine}
	switch {
	case im.adt == nil:
		for i := range reps {
			s := crdt.NewNaiveSet(i, func(b []byte) { net.Broadcast(i, b) })
			net.Attach(i, s.Deliver)
			reps[i] = s
		}
	case sc.Shards > 1:
		for i, r := range core.ShardedCluster(sc.N, sc.Shards, im.adt, net, opt) {
			reps[i] = r
		}
	default:
		for i, r := range core.Cluster(sc.N, im.adt, net, opt) {
			reps[i] = r
		}
	}
	return reps
}

// OpKind is a scripted operation type.
type OpKind int

// Scripted operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpRead
)

// Op is one scripted step: process Proc performs the operation.
type Op struct {
	Proc int
	Kind OpKind
	V    string
}

// String renders the op in the paper's notation.
func (o Op) String() string {
	switch o.Kind {
	case OpInsert:
		return fmt.Sprintf("p%d:I(%s)", o.Proc, o.V)
	case OpDelete:
		return fmt.Sprintf("p%d:D(%s)", o.Proc, o.V)
	default:
		return fmt.Sprintf("p%d:R", o.Proc)
	}
}

// Scenario describes one run.
type Scenario struct {
	// Kind selects the implementation; N the cluster size.
	Kind SetKind
	N    int
	// Shards, when above 1, runs the uc-set kinds as key-sharded
	// replicas (core.ShardedReplica): one log per shard under the
	// process's one Lamport clock, the simulated network delivering
	// each update to the owning shard. Run rejects it for other kinds.
	Shards int
	// Seed drives both the adversarial network and the interleaving.
	Seed int64
	// FIFO requests per-link FIFO delivery.
	FIFO bool
	// Script is executed in order; between steps the network delivers
	// a random number of messages (bounded by DeliverMax, default 3).
	Script     []Op
	DeliverMax int
	// CrashAt crashes process p before script step s (CrashAt[s] = p).
	CrashAt map[int]int
	// PartitionUntil, when positive, splits the cluster into
	// PartitionGroups until that script step, then heals.
	PartitionUntil  int
	PartitionGroups [][]int
	// Record enables history recording (updates, reads, and one ω read
	// per surviving process after quiescence).
	Record bool
}

// Outcome reports a run.
type Outcome struct {
	// Final maps surviving process ids to their rendered final read R.
	Final map[int]string
	// Converged reports whether all survivors agree.
	Converged bool
	// History is the recorded distributed history (nil unless
	// Scenario.Record).
	History *history.History
	// Net is the transport traffic summary.
	Net transport.Stats
}

// Run executes the scenario.
func Run(sc Scenario) Outcome {
	if sc.N <= 0 {
		panic("sim: scenario needs N > 0")
	}
	deliverMax := sc.DeliverMax
	if deliverMax <= 0 {
		deliverMax = 3
	}
	im, ok := impls[sc.Kind]
	if !ok {
		panic(fmt.Sprintf("sim: unknown set kind %q", sc.Kind))
	}
	if sc.Shards > 1 && !sc.Kind.UpdateConsistent() {
		panic(fmt.Sprintf("sim: %s cannot be sharded", sc.Kind))
	}
	net := transport.NewSim(transport.SimOptions{N: sc.N, Seed: sc.Seed, FIFO: sc.FIFO})
	reps := replicas(sc, im, net)
	var rec *history.Recorder
	if sc.Record {
		rec = history.NewRecorder(spec.Set(), sc.N)
	}
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed))
	crashed := map[int]bool{}
	if sc.PartitionUntil > 0 {
		net.Partition(sc.PartitionGroups...)
	}
	for step, op := range sc.Script {
		if p, ok := sc.CrashAt[step]; ok && !crashed[p] {
			net.Crash(p)
			crashed[p] = true
		}
		if sc.PartitionUntil > 0 && step == sc.PartitionUntil {
			net.Heal()
		}
		if crashed[op.Proc] {
			continue // a crashed process issues nothing
		}
		r, del := reps[op.Proc], op.Kind == OpDelete
		switch {
		case op.Kind == OpRead:
			out := r.Query(spec.Read{})
			if rec != nil {
				rec.Query(op.Proc, spec.Read{}, out)
			}
		case del && sc.Kind == GSet:
			continue // the grow-only set has no deletions
		default:
			if u, ok := im.issue(r, op.Proc, op.V, del); ok {
				r.Update(u)
			}
			if rec != nil {
				// The history records the set operation, whatever
				// update the kind issued for it.
				set, _ := crdt.IssueSet(nil, op.Proc, op.V, del)
				rec.Update(op.Proc, set)
			}
		}
		net.StepN(rng.Intn(deliverMax + 1))
	}
	net.Heal()
	net.Quiesce()
	out := Outcome{Final: map[int]string{}, Converged: true}
	var wantKey string
	first := true
	for p, r := range reps {
		if crashed[p] {
			continue
		}
		read := r.Query(spec.Read{})
		key := read.(spec.Elems).String()
		out.Final[p] = key
		if rec != nil {
			rec.QueryOmega(p, spec.Read{}, read)
		}
		if first {
			wantKey, first = key, false
		} else if key != wantKey {
			out.Converged = false
		}
	}
	if rec != nil {
		h, err := rec.History()
		if err != nil {
			panic(fmt.Sprintf("sim: recording failed: %v", err))
		}
		out.History = h
	}
	out.Net = net.Stats()
	return out
}

// RandomScript generates ops operations over the support, assigning
// each to a random process; readEvery > 0 inserts a read after every
// readEvery updates.
func RandomScript(rng *rand.Rand, n, ops int, support []string, readEvery int) []Op {
	var script []Op
	for len(script) < ops {
		p := rng.Intn(n)
		v := support[rng.Intn(len(support))]
		kind := OpInsert
		if rng.Intn(2) == 0 {
			kind = OpDelete
		}
		script = append(script, Op{Proc: p, Kind: kind, V: v})
		if readEvery > 0 && len(script)%readEvery == 0 {
			script = append(script, Op{Proc: rng.Intn(n), Kind: OpRead})
		}
	}
	return script
}

// Fig2Script is the program of Figure 2: p0 inserts 1 and 3 then reads
// forever; p1 inserts 2, deletes 3, then reads forever. The reads of
// the figure are represented by two reads per process before the ω
// read that Run records automatically.
func Fig2Script() []Op {
	return []Op{
		{Proc: 0, Kind: OpInsert, V: "1"},
		{Proc: 1, Kind: OpInsert, V: "2"},
		{Proc: 0, Kind: OpInsert, V: "3"},
		{Proc: 1, Kind: OpDelete, V: "3"},
		{Proc: 0, Kind: OpRead},
		{Proc: 1, Kind: OpRead},
		{Proc: 0, Kind: OpRead},
		{Proc: 1, Kind: OpRead},
	}
}

// Fig1bScript is the §VI conflict workload of Figure 1(b): two
// processes concurrently insert one element and delete the other.
func Fig1bScript() []Op {
	return []Op{
		{Proc: 0, Kind: OpInsert, V: "1"},
		{Proc: 1, Kind: OpInsert, V: "2"},
		{Proc: 0, Kind: OpDelete, V: "2"},
		{Proc: 1, Kind: OpDelete, V: "1"},
	}
}
