package spec

// QueryCacheKey is the canonical cache key of a query input. Kind
// discriminates the query types of one UQ-ADT (so a keyed read and a
// whole-state read can never collide, whatever their key strings);
// Key carries the addressed key for keyed queries and is empty
// otherwise. The struct is a valid Go map key and building one never
// allocates, which is what lets a version-keyed query-output cache
// serve repeat reads allocation-free.
type QueryCacheKey struct {
	Kind uint8
	Key  string
}

// QueryKeyer is an optional extension of UQADT implemented by
// specifications whose query inputs canonicalize to a QueryCacheKey:
// two inputs with the same cache key must produce the same output in
// every state (so a cached output may be returned for either).
// ok=false marks an input that must not be cached — the replica then
// evaluates it against the engine state on every call.
//
// Strong update consistency is what makes output caching sound at the
// replica layer: the query output is a pure function of the replica's
// update log (base + sorted live entries), so a cached output is valid
// exactly as long as the log's version is unchanged.
type QueryKeyer interface {
	// QueryInputKey returns the canonical cache key for the query
	// input, or ok=false when the input is not cacheable.
	QueryInputKey(in QueryInput) (key QueryCacheKey, ok bool)
}

// QueryInputKey implements QueryKeyer: the whole-state read R caches
// under the zero key, a membership query under its element.
func (SetSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	switch q := in.(type) {
	case Read:
		return QueryCacheKey{}, true
	case Has:
		return QueryCacheKey{Kind: 1, Key: q.V}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the register's only query is R.
func (RegisterSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(Read); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the counter's only query is R.
func (CounterSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(Read); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: a keyed counter read caches
// under its counter name; the whole-map read under its own kind.
func (CounterMapSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	switch q := in.(type) {
	case ReadCtr:
		return QueryCacheKey{Kind: 0, Key: q.K}, true
	case ReadAllCtrs:
		return QueryCacheKey{Kind: 1}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: a memory read caches under its
// register name.
func (MemorySpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if r, ok := in.(ReadKey); ok {
		return QueryCacheKey{Key: r.K}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the queue's only query is
// front.
func (QueueSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(Front); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the stack's only query is top.
func (StackSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(Top); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the log's only query reads the
// whole line list.
func (LogSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(ReadLog); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the sequence's only query reads
// the whole sequence.
func (SequenceSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(ReadSeq); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}

// QueryInputKey implements QueryKeyer: the graph's only query reads
// the whole graph.
func (GraphSpec) QueryInputKey(in QueryInput) (QueryCacheKey, bool) {
	if _, ok := in.(ReadGraph); ok {
		return QueryCacheKey{}, true
	}
	return QueryCacheKey{}, false
}
