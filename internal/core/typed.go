package core

import (
	"updatec/internal/spec"
)

// This file provides statically typed façades over the generic
// Replica. Each wraps the corresponding UQ-ADT of internal/spec and is
// what library users interact with (see the examples and the root
// updatec package).

// Set is an update consistent replicated set (the S_Val of Example 1):
// replicas converge to the state reached by a total order of all
// insertions and deletions, so — unlike an OR-set — a read after
// convergence is always explainable by a sequential execution.
type Set struct{ r *Replica }

// NewSet wraps a replica built over spec.Set.
func NewSet(r *Replica) *Set {
	if _, ok := r.ADT().(spec.SetSpec); !ok {
		panic("core: NewSet requires a spec.Set replica")
	}
	return &Set{r: r}
}

// Replica returns the underlying generic replica.
func (s *Set) Replica() *Replica { return s.r }

// Insert adds v to the set.
func (s *Set) Insert(v string) { s.r.Update(spec.Ins{V: v}) }

// Delete removes v from the set.
func (s *Set) Delete(v string) { s.r.Update(spec.Del{V: v}) }

// Elements returns the current contents, sorted.
func (s *Set) Elements() []string {
	return s.r.Query(spec.Read{}).(spec.Elems)
}

// Contains reports membership of v in the current local state (the
// keyed point query spec.Has).
func (s *Set) Contains(v string) bool { return bool(s.r.Query(spec.Has{V: v}).(spec.Bool)) }

// Counter is an update consistent replicated counter. Counter updates
// commute, so this object is also a CRDT; it exists for the §VII-C
// observation that the generic construction specializes gracefully.
type Counter struct{ r *Replica }

// NewCounter wraps a replica built over spec.Counter.
func NewCounter(r *Replica) *Counter {
	if _, ok := r.ADT().(spec.CounterSpec); !ok {
		panic("core: NewCounter requires a spec.Counter replica")
	}
	return &Counter{r: r}
}

// Replica returns the underlying generic replica.
func (c *Counter) Replica() *Replica { return c.r }

// Add adds n (possibly negative).
func (c *Counter) Add(n int64) { c.r.Update(spec.Add{N: n}) }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Dec subtracts 1.
func (c *Counter) Dec() { c.Add(-1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	return int64(c.r.Query(spec.Read{}).(spec.CtrVal))
}

// Register is an update consistent last-writer register.
type Register struct{ r *Replica }

// NewRegister wraps a replica built over spec.Register.
func NewRegister(r *Replica) *Register {
	if _, ok := r.ADT().(spec.RegisterSpec); !ok {
		panic("core: NewRegister requires a spec.Register replica")
	}
	return &Register{r: r}
}

// Replica returns the underlying generic replica.
func (g *Register) Replica() *Replica { return g.r }

// Write stores v.
func (g *Register) Write(v string) { g.r.Update(spec.Write{V: v}) }

// Read returns the current value.
func (g *Register) Read() string {
	return string(g.r.Query(spec.Read{}).(spec.RegVal))
}

// TextLog is an update consistent append-only document: all replicas
// converge to the same line order, the property collaborative editing
// needs (§I's intention preservation motivation).
type TextLog struct{ r *Replica }

// NewTextLog wraps a replica built over spec.Log.
func NewTextLog(r *Replica) *TextLog {
	if _, ok := r.ADT().(spec.LogSpec); !ok {
		panic("core: NewTextLog requires a spec.Log replica")
	}
	return &TextLog{r: r}
}

// Replica returns the underlying generic replica.
func (l *TextLog) Replica() *Replica { return l.r }

// Append adds a line at the end of the document.
func (l *TextLog) Append(line string) { l.r.Update(spec.Append{V: line}) }

// Lines returns the document.
func (l *TextLog) Lines() []string {
	return l.r.Query(spec.ReadLog{}).(spec.Lines)
}

// Graph is an update consistent directed graph with referential
// integrity: an edge only ever connects present vertices, in every
// replica's view — the invariant-preserving object CRDT graphs cannot
// provide (they must admit dangling edges or tombstone vertices under
// concurrency).
type Graph struct{ r *Replica }

// NewGraph wraps a replica built over spec.Graph.
func NewGraph(r *Replica) *Graph {
	if _, ok := r.ADT().(spec.GraphSpec); !ok {
		panic("core: NewGraph requires a spec.Graph replica")
	}
	return &Graph{r: r}
}

// Replica returns the underlying generic replica.
func (g *Graph) Replica() *Replica { return g.r }

// AddVertex adds vertex v.
func (g *Graph) AddVertex(v string) { g.r.Update(spec.AddV{V: v}) }

// RemoveVertex removes v and its incident edges.
func (g *Graph) RemoveVertex(v string) { g.r.Update(spec.RemV{V: v}) }

// AddEdge adds the edge u→v; the sequential semantics drop it if
// either endpoint is absent at its point in the update linearization.
func (g *Graph) AddEdge(u, v string) { g.r.Update(spec.AddE{U: u, V: v}) }

// RemoveEdge removes the edge u→v.
func (g *Graph) RemoveEdge(u, v string) { g.r.Update(spec.RemE{U: u, V: v}) }

// Snapshot returns the current vertices and edges.
func (g *Graph) Snapshot() spec.GraphVal {
	return g.r.Query(spec.ReadGraph{}).(spec.GraphVal)
}

// Sequence is an update consistent positional sequence (ordered
// document): replicas converge to the same element order even under
// concurrent positional inserts and deletes.
type Sequence struct{ r *Replica }

// NewSequence wraps a replica built over spec.Sequence.
func NewSequence(r *Replica) *Sequence {
	if _, ok := r.ADT().(spec.SequenceSpec); !ok {
		panic("core: NewSequence requires a spec.Sequence replica")
	}
	return &Sequence{r: r}
}

// Replica returns the underlying generic replica.
func (s *Sequence) Replica() *Replica { return s.r }

// InsertAt inserts v at position pos (clamped to the document length
// at its point in the update linearization).
func (s *Sequence) InsertAt(pos int, v string) { s.r.Update(spec.InsAt{Pos: pos, V: v}) }

// DeleteAt deletes the element at position pos (no-op out of range).
func (s *Sequence) DeleteAt(pos int) { s.r.Update(spec.DelAt{Pos: pos}) }

// Items returns the current document.
func (s *Sequence) Items() []string {
	return s.r.Query(spec.ReadSeq{}).(spec.Lines)
}

// KV is a replicated key-value store backed by the generic
// construction over spec.Memory. For the O(1) specialized
// implementation use Memory (Algorithm 2) instead; KV exists so the
// experiments can compare the two (E9).
type KV struct{ r *Replica }

// NewKV wraps a replica built over spec.Memory.
func NewKV(r *Replica) *KV {
	if _, ok := r.ADT().(spec.MemorySpec); !ok {
		panic("core: NewKV requires a spec.Memory replica")
	}
	return &KV{r: r}
}

// Replica returns the underlying generic replica.
func (kv *KV) Replica() *Replica { return kv.r }

// Put writes v to register k.
func (kv *KV) Put(k, v string) { kv.r.Update(spec.WriteKey{K: k, V: v}) }

// Get reads register k.
func (kv *KV) Get(k string) string {
	return string(kv.r.Query(spec.ReadKey{K: k}).(spec.RegVal))
}
