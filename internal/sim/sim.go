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

// node abstracts one replica of any set implementation.
type node interface {
	Name() string
	Insert(v string)
	Delete(v string)
	Elements() []string
	StateKey() string
	SupportsDelete() bool
}

// ucNode adapts a replica over the set spec to the node interface.
type ucNode struct {
	rep  *core.Replica
	kind SetKind
}

func (n ucNode) Name() string    { return string(n.kind) }
func (n ucNode) Insert(v string) { n.rep.Update(spec.Ins{V: v}) }
func (n ucNode) Delete(v string) { n.rep.Update(spec.Del{V: v}) }
func (n ucNode) Elements() []string {
	return n.rep.Query(spec.Read{}).(spec.Elems)
}
func (n ucNode) StateKey() string     { return n.rep.StateKey() }
func (n ucNode) SupportsDelete() bool { return true }

// shardedNode adapts a key-sharded replica over the set spec: elements
// hash to shards, reads merge the per-shard states.
type shardedNode struct {
	rep  *core.ShardedReplica
	kind SetKind
}

func (n shardedNode) Name() string {
	return fmt.Sprintf("%s/%d-shards", n.kind, n.rep.NumShards())
}
func (n shardedNode) Insert(v string) { n.rep.Update(spec.Ins{V: v}) }
func (n shardedNode) Delete(v string) { n.rep.Update(spec.Del{V: v}) }
func (n shardedNode) Elements() []string {
	return n.rep.Query(spec.Read{}).(spec.Elems)
}
func (n shardedNode) StateKey() string     { return n.rep.StateKey() }
func (n shardedNode) SupportsDelete() bool { return true }

// newSetCluster builds n replicas of the given kind on the network;
// shards > 1 selects the key-sharded construction for the uc-set kinds
// (the network then delivers each update to the owning shard).
func newSetCluster(kind SetKind, n, shards int, net transport.ResizableNetwork) []node {
	nodes := make([]node, n)
	switch kind {
	case UCSet, UCSetCheckpoint, UCSetUndo:
		mk := func() core.Engine { return core.NewReplayEngine() }
		switch kind {
		case UCSetCheckpoint:
			mk = func() core.Engine { return core.NewCheckpointEngine(64) }
		case UCSetUndo:
			mk = nil // the default engine
		}
		if shards > 1 {
			reps := core.ShardedCluster(n, shards, spec.Set(), net, core.ClusterOptions{NewEngine: mk})
			for i, r := range reps {
				nodes[i] = shardedNode{rep: r, kind: kind}
			}
			break
		}
		reps := core.Cluster(n, spec.Set(), net, core.ClusterOptions{NewEngine: mk})
		for i, r := range reps {
			nodes[i] = ucNode{rep: r, kind: kind}
		}
	case Eager:
		for i := range nodes {
			nodes[i] = crdt.NewNaiveSet(i, net)
		}
	case GSet:
		for i := range nodes {
			nodes[i] = crdt.NewGSet(i, net)
		}
	case TwoPSet:
		for i := range nodes {
			nodes[i] = crdt.NewTwoPhaseSet(i, net)
		}
	case PNSet:
		for i := range nodes {
			nodes[i] = crdt.NewPNSet(i, net)
		}
	case CSet:
		for i := range nodes {
			nodes[i] = crdt.NewCSet(i, net)
		}
	case ORSet:
		for i := range nodes {
			nodes[i] = crdt.NewORSet(i, net)
		}
	case LWWSet:
		for i := range nodes {
			nodes[i] = crdt.NewLWWSet(i, net)
		}
	default:
		panic(fmt.Sprintf("sim: unknown set kind %q", kind))
	}
	return nodes
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
	// replicas (core.ShardedReplica): one log and clock per shard, the
	// simulated network delivering each update to the owning shard.
	// Non-uc kinds ignore it.
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
	// Final maps surviving process ids to their converged state keys.
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
	net := transport.NewSim(transport.SimOptions{N: sc.N, Seed: sc.Seed, FIFO: sc.FIFO})
	nodes := newSetCluster(sc.Kind, sc.N, sc.Shards, net)
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
		switch op.Kind {
		case OpInsert:
			nodes[op.Proc].Insert(op.V)
			if rec != nil {
				rec.Update(op.Proc, spec.Ins{V: op.V})
			}
		case OpDelete:
			if !nodes[op.Proc].SupportsDelete() {
				continue
			}
			nodes[op.Proc].Delete(op.V)
			if rec != nil {
				rec.Update(op.Proc, spec.Del{V: op.V})
			}
		case OpRead:
			out := spec.Elems(nodes[op.Proc].Elements())
			if rec != nil {
				rec.Query(op.Proc, spec.Read{}, out)
			}
		}
		net.StepN(rng.Intn(deliverMax + 1))
	}
	net.Heal()
	net.Quiesce()
	out := Outcome{Final: map[int]string{}, Converged: true}
	var wantKey string
	first := true
	for p, nd := range nodes {
		if crashed[p] {
			continue
		}
		key := nd.StateKey()
		out.Final[p] = key
		if rec != nil {
			rec.QueryOmega(p, spec.Read{}, spec.Elems(nd.Elements()))
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
