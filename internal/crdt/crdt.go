// Package crdt implements the eventually consistent set constructions
// surveyed in §VI of the paper — G-Set, 2P-Set, PN-Set, C-Set, OR-Set
// and LWW-element-Set — as baselines for the update consistent objects
// of internal/core.
//
// All implementations are operation-based over the same reliable
// broadcast transport the core replicas use (exactly-once delivery per
// process), apply remote operations eagerly on delivery, and never
// wait for the network — they are wait-free, eventually consistent,
// and each resolves concurrent insert/delete conflicts with its own
// policy. Experiment E7 runs identical conflict workloads against all
// of them and against the update consistent set to reproduce the
// paper's comparison: "all these sets ... have a different behavior
// when they are used in distributed programs".
//
// The package also provides NaiveSet, the non-CRDT strawman that
// applies set operations in delivery order; it is the implementation
// whose divergence motivates eventual consistency machinery in the
// first place, and experiment E3 uses it to exhibit the divergence at
// the heart of Proposition 1.
package crdt

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"updatec/internal/transport"
)

// ReplicatedSet is the common interface of all set baselines, shaped
// to match the update consistent set's handle so the experiment harness
// can swap implementations.
type ReplicatedSet interface {
	// Name identifies the implementation in experiment tables.
	Name() string
	// Insert adds v; Delete removes v, subject to the implementation's
	// conflict policy.
	Insert(v string)
	Delete(v string)
	// Elements returns the present elements, sorted.
	Elements() []string
	// StateKey canonically renders the observable state for
	// convergence checks.
	StateKey() string
	// SupportsDelete reports whether Delete is meaningful (false for
	// the grow-only set).
	SupportsDelete() bool
}

// setMsg is the wire format shared by the set baselines. Baselines use
// JSON framing — their message sizes are not part of any reproduced
// claim, only their convergence semantics.
type setMsg struct {
	Kind string   `json:"k"`            // "add", "rem"
	V    string   `json:"v"`            // element
	N    int64    `json:"n,omitempty"`  // counter delta (PN-Set, C-Set)
	Tag  string   `json:"t,omitempty"`  // unique tag (OR-Set add)
	Tags []string `json:"ts,omitempty"` // observed tags (OR-Set remove)
	Cl   uint64   `json:"c,omitempty"`  // timestamp clock (LWW)
	Pid  int      `json:"p,omitempty"`  // timestamp pid (LWW)
}

func mustMarshal(m setMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("crdt: marshal: %v", err))
	}
	return b
}

func mustUnmarshal(b []byte) setMsg {
	var m setMsg
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("crdt: unmarshal: %v", err))
	}
	return m
}

// elemsKey renders a sorted element list canonically, matching the
// spec.Elems rendering used by the update consistent set.
func elemsKey(elems []string) string {
	if len(elems) == 0 {
		return "∅"
	}
	out := "{"
	for i, e := range elems {
		if i > 0 {
			out += ", "
		}
		out += e
	}
	return out + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// base carries the plumbing shared by the baselines.
type base struct {
	mu  sync.Mutex
	id  int
	net transport.Network
}

func (b *base) attach(h func(from int, payload []byte)) {
	b.net.Attach(b.id, h)
}
