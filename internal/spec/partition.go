package spec

import "fmt"

// Partitionable is implemented by specifications whose state decomposes
// into independent per-key components: every update addresses exactly
// one key, the transition function never lets one key's updates affect
// another key's component, and the whole state is the disjoint union of
// the components.
//
// For such types update consistency composes per key: running
// Algorithm 1 once per key (or once per *shard* of keys, as
// core.ShardedReplica does) yields, for each key, the state reached by
// a total order of that key's updates, and any interleaving of those
// per-key orders is a single sequential execution producing the merged
// state. This is the observation that lets partitionable objects scale
// updates across shards without weakening the paper's guarantee — the
// per-shard constructions stay wait-free and strong update consistent,
// and their union is explainable by one total order of all updates.
//
// Implementations must satisfy, for all states s and updates u, v with
// UpdateKey(u) ≠ UpdateKey(v):
//
//   - independence: T(T(s,u),v) = T(T(s,v),u), and
//   - locality: a query with QueryKey k depends only on the updates
//     with UpdateKey k.
type Partitionable interface {
	// UpdateKey returns the key update u addresses.
	UpdateKey(u Update) string
	// QueryKey returns the key query input in addresses, or ok=false
	// for a query that observes the whole state (such a query must be
	// evaluated on the merged state of all shards).
	QueryKey(in QueryInput) (key string, ok bool)
	// MergeInto folds the key components of src into dst and returns
	// dst. Callers guarantee dst and src hold disjoint key sets; src is
	// read-only and must not be mutated or aliased by the result.
	MergeInto(dst, src State) State
	// UnmergeFrom removes src's key components from dst and returns
	// dst — the inverse of MergeInto(dst, src). Callers guarantee src
	// is exactly a state previously merged into dst (same key set);
	// src is read-only. The sharded merged-state cache uses it to
	// replace one shard's contribution without re-folding the others.
	UnmergeFrom(dst, src State) State
	// ExtractRange removes from s every key component the keep
	// predicate selects and returns those components as a fresh state,
	// together with the number of components moved (0 with a nil
	// extracted state when nothing matched). It is the per-key split of
	// a state that live resharding needs: a shard's compacted base is
	// partitioned into one extracted state per destination shard, and
	// after extracting every range the source state is empty. s may be
	// mutated freely (the caller is discarding it); the extracted state
	// must share no mutable structure with s.
	ExtractRange(s State, keep func(key string) bool) (State, int)
}

// extractMap is the shared ExtractRange body for the map-backed
// partitionable states: move the entries keep selects out of src into
// a fresh map, allocated lazily so a miss costs nothing.
func extractMap[V any](src map[string]V, keep func(key string) bool) (map[string]V, int) {
	var out map[string]V
	for k, v := range src {
		if !keep(k) {
			continue
		}
		if out == nil {
			out = map[string]V{}
		}
		out[k] = v
		delete(src, k)
	}
	return out, len(out)
}

// UpdateKey implements Partitionable: a set element is its own key.
func (SetSpec) UpdateKey(u Update) string {
	switch op := u.(type) {
	case Ins:
		return op.V
	case Del:
		return op.V
	default:
		panic(fmt.Sprintf("spec: set does not recognize update %T", u))
	}
}

// QueryKey implements Partitionable: a membership query addresses its
// element; the read R observes the whole set.
func (SetSpec) QueryKey(in QueryInput) (string, bool) {
	h, ok := in.(Has)
	return h.V, ok
}

// MergeInto implements Partitionable: union of disjoint element sets
// (set states hold only present elements, so every entry copies over,
// stamped new in dst).
func (SetSpec) MergeInto(dst, src State) State {
	d := dst.(*setState)
	for k := range src.(*setState).m {
		d.m[k] = d.gen
	}
	return d
}

// UnmergeFrom implements Partitionable: remove src's elements.
func (SetSpec) UnmergeFrom(dst, src State) State {
	d := dst.(*setState)
	for k := range src.(*setState).m {
		delete(d.m, k)
	}
	return d
}

// ExtractRange implements Partitionable: move the selected elements
// into a fresh set state, never read, so each is stamped generation 0.
func (SetSpec) ExtractRange(s State, keep func(key string) bool) (State, int) {
	st := s.(*setState)
	out, n := extractMap(st.m, keep)
	if n == 0 {
		return nil, 0
	}
	for k := range out {
		out[k] = 0
	}
	return newSetState(out), n
}

// UpdateKey implements Partitionable: a write addresses its register.
func (MemorySpec) UpdateKey(u Update) string {
	w, ok := u.(WriteKey)
	if !ok {
		panic(fmt.Sprintf("spec: memory does not recognize update %T", u))
	}
	return w.K
}

// QueryKey implements Partitionable: a read addresses its register.
func (MemorySpec) QueryKey(in QueryInput) (string, bool) {
	r, ok := in.(ReadKey)
	if !ok {
		return "", false
	}
	return r.K, true
}

// MergeInto implements Partitionable: union of disjoint register maps.
func (MemorySpec) MergeInto(dst, src State) State {
	d := dst.(map[string]string)
	for k, v := range src.(map[string]string) {
		d[k] = v
	}
	return d
}

// UnmergeFrom implements Partitionable: remove src's registers.
func (MemorySpec) UnmergeFrom(dst, src State) State {
	d := dst.(map[string]string)
	for k := range src.(map[string]string) {
		delete(d, k)
	}
	return d
}

// ExtractRange implements Partitionable: move the selected registers
// into a fresh register map.
func (MemorySpec) ExtractRange(s State, keep func(key string) bool) (State, int) {
	out, n := extractMap(s.(map[string]string), keep)
	if n == 0 {
		return nil, 0
	}
	return out, n
}
