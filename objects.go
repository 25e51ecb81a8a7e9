package updatec

import (
	"fmt"
	"math/rand"
	"slices"

	"updatec/internal/check"
	"updatec/internal/history"
	"updatec/internal/spec"
)

// Handle is the object surface every typed handle is written against:
// issue an update, evaluate a query. Depending on how the handle was
// obtained it is backed by a (possibly sharded) replica of the generic
// construction at either consistency level, a wire client, or a client
// session — the handle's methods are identical in all
// cases. Define's handle wiring receives one and wraps it into the
// application's typed handle; Lookup's dynamic descriptors hand it out
// directly.
type Handle interface {
	Update(u Update)
	Query(in QueryInput) QueryOutput
}

// port is the historical internal name for Handle.
type port = Handle

// Object describes one replicated data type to New: its sequential
// specification (the UQ-ADT of Definition 1), the codec broadcasting
// its updates, how to wrap a replica Handle into the typed handle H,
// and the converged (ω) query recorded at the end of a recorded run.
// Obtain one from Define (user-defined types), from the built-in
// descriptors — SetObject, CounterObject, RegisterObject,
// TextLogObject, GraphObject, SequenceObject, KVObject,
// CounterMapObject, MemoryObject — or by name from Lookup.
type Object[H any] struct {
	name  string
	adt   spec.UQADT
	codec spec.Codec // resolved: explicit Define codec, or the adt itself
	// queries carries queries to and from Dial clients, resolved like
	// codec; nil when neither implements QueryCodec.
	queries spec.QueryCodec
	wrap    func(p Handle) H
	// omega/hasOmega is the declared ω query (WithOmega).
	omega    spec.QueryInput
	hasOmega bool
	// workload is the optional random-update generator (WithWorkload).
	workload func(rng *rand.Rand, key string) spec.Update
}

// Name returns the descriptor's data type name (e.g. "set").
func (o Object[H]) Name() string { return o.name }

// Spec returns the sequential specification. Capability probing works
// on it directly: `_, ok := obj.Spec().(updatec.Partitionable)` tells
// whether the object can shard.
func (o Object[H]) Spec() Spec { return o.adt }

// Codec returns the update codec the object broadcasts with — the
// explicit codec given to Define, or the spec itself when it implements
// Codec.
func (o Object[H]) Codec() Codec { return o.codec }

// Omega returns the declared converged (ω) query, if any.
func (o Object[H]) Omega() (QueryInput, bool) { return o.omega, o.hasOmega }

// RandomUpdate draws one update from the object's workload generator
// (WithWorkload), targeting the given key; ok is false when the object
// declared no workload. Harnesses that drive arbitrary objects — chaos
// schedules, ucsim, spectest — are built on this.
func (o Object[H]) RandomUpdate(rng *rand.Rand, key string) (u Update, ok bool) {
	if o.workload == nil {
		return nil, false
	}
	return o.workload(rng, key), true
}

// Dynamic erases the typed handle: the returned descriptor is the same
// object with H = Handle (identity wiring). This is the form the
// registry stores and the form generic harnesses consume.
func (o Object[H]) Dynamic() Object[Handle] {
	return Object[Handle]{
		name:     o.name,
		adt:      o.adt,
		codec:    o.codec,
		queries:  o.queries,
		wrap:     func(p Handle) Handle { return p },
		omega:    o.omega,
		hasOmega: o.hasOmega,
		workload: o.workload,
	}
}

// partitionable reports whether the object may be key-sharded.
func (o Object[H]) partitionable() bool {
	_, ok := o.adt.(spec.Partitionable)
	return ok
}

// Set is an update consistent replicated set: after convergence, every
// replica holds the state reached by one total order of all insertions
// and deletions (Example 1's S_Val under Algorithm 1).
type Set struct{ p port }

// Insert adds v to the set. Wait-free.
func (s *Set) Insert(v string) { s.p.Update(spec.Ins{V: v}) }

// Delete removes v from the set. Wait-free.
func (s *Set) Delete(v string) { s.p.Update(spec.Del{V: v}) }

// Elements returns this replica's current view, sorted. The caller
// owns the slice.
func (s *Set) Elements() []string {
	return slices.Clone(s.p.Query(spec.Read{}).(spec.Elems))
}

// Contains reports membership in this replica's current view. It is a
// keyed point query: O(1) on the replica's maintained state, served by
// the one shard that owns v, and a single bool on the wire.
func (s *Set) Contains(v string) bool { return bool(s.p.Query(spec.Has{V: v}).(spec.Bool)) }

// SetObject describes the replicated set. Partitionable (each element
// is its own key), so it accepts WithShards.
func SetObject() Object[*Set] {
	return mustDefine(define("set", spec.Set(), nil,
		func(p Handle) *Set { return &Set{p: p} },
		WithOmega(spec.Read{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			if rng.Intn(3) == 0 {
				return spec.Del{V: key}
			}
			return spec.Ins{V: key}
		})))
}

// Counter is an update consistent replicated counter (also a CRDT,
// since its updates commute).
type Counter struct{ p port }

// Add adds n (negative values subtract). Wait-free.
func (c *Counter) Add(n int64) { c.p.Update(spec.Add{N: n}) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Dec subtracts one.
func (c *Counter) Dec() { c.Add(-1) }

// Value returns this replica's current count.
func (c *Counter) Value() int64 { return int64(c.p.Query(spec.Read{}).(spec.CtrVal)) }

// CounterObject describes the replicated counter.
func CounterObject() Object[*Counter] {
	return mustDefine(define("counter", spec.Counter(), nil,
		func(p Handle) *Counter { return &Counter{p: p} },
		WithOmega(spec.Read{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			return spec.Add{N: rng.Int63n(9) - 4}
		})))
}

// Register is an update consistent last-writer register.
type Register struct{ p port }

// Write stores v. Wait-free.
func (r *Register) Write(v string) { r.p.Update(spec.Write{V: v}) }

// Read returns this replica's current value.
func (r *Register) Read() string { return string(r.p.Query(spec.Read{}).(spec.RegVal)) }

// RegisterObject describes the replicated register with initial value
// v0.
func RegisterObject(v0 string) Object[*Register] {
	return mustDefine(define("register", spec.Register(v0), nil,
		func(p Handle) *Register { return &Register{p: p} },
		WithOmega(spec.Read{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			return spec.Write{V: fmt.Sprintf("%s-%d", key, rng.Intn(64))}
		})))
}

// TextLog is an update consistent append-only document: all replicas
// converge to the same line order — the convergence collaborative
// editors need. Appends do not commute, so no plain CRDT provides
// this; the update linearization does.
type TextLog struct{ p port }

// Append adds a line at the end of the document. Wait-free.
func (l *TextLog) Append(line string) { l.p.Update(spec.Append{V: line}) }

// Lines returns this replica's current document.
func (l *TextLog) Lines() []string { return l.p.Query(spec.ReadLog{}).(spec.Lines) }

// TextLogObject describes the replicated append-only document.
func TextLogObject() Object[*TextLog] {
	return mustDefine(define("log", spec.Log(), nil,
		func(p Handle) *TextLog { return &TextLog{p: p} },
		WithOmega(spec.ReadLog{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			return spec.Append{V: fmt.Sprintf("%s-%d", key, rng.Intn(64))}
		})))
}

// Graph is an update consistent directed graph: every replica's view
// always satisfies referential integrity (edges only between present
// vertices), because all replicas execute the same update
// linearization of the sequential graph semantics.
type Graph struct{ p port }

// AddVertex adds vertex v. Wait-free.
func (g *Graph) AddVertex(v string) { g.p.Update(spec.AddV{V: v}) }

// RemoveVertex removes v and its incident edges. Wait-free.
func (g *Graph) RemoveVertex(v string) { g.p.Update(spec.RemV{V: v}) }

// AddEdge adds edge u→v (dropped if an endpoint is absent at its
// linearization point). Wait-free.
func (g *Graph) AddEdge(u, v string) { g.p.Update(spec.AddE{U: u, V: v}) }

// RemoveEdge removes edge u→v. Wait-free.
func (g *Graph) RemoveEdge(u, v string) { g.p.Update(spec.RemE{U: u, V: v}) }

// Vertices returns this replica's current vertices, sorted, in a slice
// the caller owns.
func (g *Graph) Vertices() []string { return slices.Clone(g.snapshot().Vertices) }

// Edges returns this replica's current edges, sorted, in a slice the
// caller owns.
func (g *Graph) Edges() [][2]string { return slices.Clone(g.snapshot().Edges) }

func (g *Graph) snapshot() spec.GraphVal {
	return g.p.Query(spec.ReadGraph{}).(spec.GraphVal)
}

// GraphObject describes the replicated graph.
func GraphObject() Object[*Graph] {
	return mustDefine(define("graph", spec.Graph(), nil,
		func(p Handle) *Graph { return &Graph{p: p} },
		WithOmega(spec.ReadGraph{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			other := fmt.Sprintf("v%d", rng.Intn(5))
			switch rng.Intn(4) {
			case 0:
				return spec.AddV{V: key}
			case 1:
				return spec.RemV{V: key}
			case 2:
				return spec.AddE{U: key, V: other}
			default:
				return spec.RemE{U: key, V: other}
			}
		})))
}

// Sequence is an update consistent positional sequence: a shared
// ordered document with insert-at-position and delete-at-position,
// converging to one element order on every replica.
type Sequence struct{ p port }

// InsertAt inserts v at position pos. Wait-free.
func (s *Sequence) InsertAt(pos int, v string) { s.p.Update(spec.InsAt{Pos: pos, V: v}) }

// DeleteAt deletes the element at position pos. Wait-free.
func (s *Sequence) DeleteAt(pos int) { s.p.Update(spec.DelAt{Pos: pos}) }

// Items returns this replica's current document, in a slice the caller
// owns.
func (s *Sequence) Items() []string { return slices.Clone(s.p.Query(spec.ReadSeq{}).(spec.Lines)) }

// SequenceObject describes the replicated positional sequence.
func SequenceObject() Object[*Sequence] {
	return mustDefine(define("sequence", spec.Sequence(), nil,
		func(p Handle) *Sequence { return &Sequence{p: p} },
		WithOmega(spec.ReadSeq{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			if rng.Intn(3) == 0 {
				return spec.DelAt{Pos: rng.Intn(4)}
			}
			return spec.InsAt{Pos: rng.Intn(4), V: fmt.Sprintf("%s-%d", key, rng.Intn(64))}
		})))
}

// KV is an update consistent key-value store: the register-map type of
// MemoryObject with an empty initial value. A write masks every earlier
// write to its key (Algorithm 2's observation, spec.Masking), so each
// replica's log keeps one entry per key, not one per write. It is
// partitionable — each register is its own key — so it accepts
// WithShards and Resize.
type KV struct{ p port }

// Put writes v to register k. Wait-free.
func (kv *KV) Put(k, v string) { kv.p.Update(spec.WriteKey{K: k, V: v}) }

// Get reads register k from this replica.
func (kv *KV) Get(k string) string {
	return string(kv.p.Query(spec.ReadKey{K: k}).(spec.RegVal))
}

// KVObject describes the generic key-value store.
func KVObject() Object[*KV] {
	return mustDefine(define("kv", spec.Memory(""), nil,
		func(p Handle) *KV { return &KV{p: p} },
		WithOmega(spec.ReadKey{K: ""}),
		WithWorkload(kvWorkload)))
}

// kvWorkload is shared by the kv and memory descriptors (one spec,
// different handles).
func kvWorkload(rng *rand.Rand, key string) Update {
	return spec.WriteKey{K: key, V: fmt.Sprintf("v%d", rng.Intn(64))}
}

// CounterMap is an update consistent map of named counters: additions
// to one counter commute, additions to different counters are
// independent, which makes it both a CRDT and the canonical
// partitionable workload — with WithShards, each increment touches
// only the shard owning its counter.
type CounterMap struct{ p port }

// Add adds n (negative values subtract) to counter k. Wait-free.
func (m *CounterMap) Add(k string, n int64) { m.p.Update(spec.AddKey{K: k, N: n}) }

// Inc adds one to counter k.
func (m *CounterMap) Inc(k string) { m.Add(k, 1) }

// Dec subtracts one from counter k.
func (m *CounterMap) Dec(k string) { m.Add(k, -1) }

// Value returns counter k at this replica (zero if never touched). On
// a sharded cluster this keyed read is served entirely by the shard
// owning k.
func (m *CounterMap) Value(k string) int64 {
	return int64(m.p.Query(spec.ReadCtr{K: k}).(spec.CtrVal))
}

// All returns every touched counter as sorted "k=v" entries — a
// whole-state read: on a sharded cluster it folds the per-shard states
// (served through the merged-state cache). The caller owns the slice.
func (m *CounterMap) All() []string {
	return slices.Clone(m.p.Query(spec.ReadAllCtrs{}).(spec.Elems))
}

// CounterMapObject describes the replicated counter map.
func CounterMapObject() Object[*CounterMap] {
	return mustDefine(define("countermap", spec.CounterMap(), nil,
		func(p Handle) *CounterMap { return &CounterMap{p: p} },
		WithOmega(spec.ReadAllCtrs{}),
		WithWorkload(func(rng *rand.Rand, key string) Update {
			return spec.AddKey{K: key, N: rng.Int63n(5) + 1}
		})))
}

// Memory is the shared memory of Algorithm 2: per-register
// last-writer-wins cells ordered by the same timestamps as Algorithm 1.
// It is Algorithm 1 with Algorithm 2's observation as the log's policy:
// an overwritten value can never be read again, so a replica keeps only
// the latest write per register, and its log stays within twice the
// number of registers written however many writes it has seen. Reads
// are keyed queries on the maintained state. Memory accepts every
// option the generic construction does — WithShards and Resize (it is
// partitionable), WithGC (there is nothing left to fold),
// sessions, the wire transport and Dial.
type Memory struct{ p port }

// Write stores v in register x. Wait-free, O(1) amortised.
func (m *Memory) Write(x, v string) { m.p.Update(spec.WriteKey{K: x, V: v}) }

// Read returns register x at this replica.
func (m *Memory) Read(x string) string {
	return string(m.p.Query(spec.ReadKey{K: x}).(spec.RegVal))
}

// MemoryObject describes the Algorithm 2 shared memory with initial
// register value v0.
func MemoryObject(v0 string) Object[*Memory] {
	return mustDefine(define("memory", spec.Memory(v0), nil,
		func(p Handle) *Memory { return &Memory{p: p} },
		WithOmega(spec.ReadKey{K: ""}),
		WithWorkload(kvWorkload)))
}

// ClassifyHistory parses a history in the paper's notation (see
// cmd/uccheck for the grammar) and classifies it under the six
// criteria.
func ClassifyHistory(text string) (Classification, error) {
	h, err := history.Parse(text)
	if err != nil {
		return Classification{}, err
	}
	return classify(h), nil
}

func classify(h *history.History) Classification {
	c := check.Classify(h)
	return Classification{
		EventuallyConsistent:       c.EC,
		StrongEventuallyConsistent: c.SEC,
		UpdateConsistent:           c.UC,
		StrongUpdateConsistent:     c.SUC,
		PipelinedConsistent:        c.PC,
		CausallyConsistent:         c.CC,
		Undecided:                  c.Undecided,
	}
}
