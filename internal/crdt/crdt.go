// Package crdt holds the eventually consistent set constructions
// surveyed in §VI of the paper — G-Set, 2P-Set, PN-Set, C-Set, OR-Set
// and LWW-element-Set — as baselines for the update consistent set.
//
// Every one of them is a sequential specification whose updates
// commute, run on the one replica of internal/core like any other
// object: any fold order reaches the same state, so Algorithm 1's log
// reproduces each CRDT exactly. What tells the sets apart is the
// update a process issues for I(v) and D(v), chosen after reading its
// own replica: the Issue functions below. Experiment E7 runs one
// conflict workload against all of them and against the update
// consistent set to reproduce the paper's comparison: "all these sets
// ... have a different behavior when they are used in distributed
// programs".
//
// The package also provides NaiveSet, the non-CRDT strawman that
// applies set operations in delivery order; it is the implementation
// whose divergence motivates eventual consistency machinery in the
// first place, and experiment E3 uses it to exhibit the divergence at
// the heart of Proposition 1.
package crdt

import "updatec/internal/spec"

// Querier is the read side of a replica: what an issuer looks at just
// before it updates.
type Querier interface {
	Query(spec.QueryInput) spec.QueryOutput
}

// Issue returns the update process proc issues for the set operation
// I(v), or D(v) when del is set, after reading its replica r; ok is
// false when the process issues nothing.
type Issue func(r Querier, proc int, v string, del bool) (u spec.Update, ok bool)

// IssueSet issues the set's own updates I(v) and D(v): the update
// consistent, eager, G- and 2P-sets.
func IssueSet(_ Querier, _ int, v string, del bool) (spec.Update, bool) {
	if del {
		return spec.Del{V: v}, true
	}
	return spec.Ins{V: v}, true
}

// IssuePN issues the PN-set's ±1 on v's counter: inserting twice needs
// two deletions, and a deletion of an absent element drives its count
// negative.
func IssuePN(_ Querier, _ int, v string, del bool) (spec.Update, bool) {
	if del {
		return spec.AddKey{K: v, N: -1}, true
	}
	return spec.AddKey{K: v, N: 1}, true
}

// IssueC issues the C-set's delta: the one that brings v's local count
// to exactly 1 on insertion or 0 on deletion, so a locally observed
// state change always happens; an operation that would change nothing
// locally issues nothing.
func IssueC(r Querier, _ int, v string, del bool) (spec.Update, bool) {
	c := int64(r.Query(spec.ReadCtr{K: v}).(spec.CtrVal))
	delta := int64(0)
	switch {
	case del && c > 0:
		delta = -c
	case !del && c <= 0:
		delta = 1 - c
	}
	return spec.AddKey{K: v, N: delta}, delta != 0
}

// IssueOR issues an OR-set insertion under a fresh tag, or a deletion
// of the tags of v the process observes.
func IssueOR(r Querier, proc int, v string, del bool) (spec.Update, bool) {
	if del {
		return OR{V: v, Del: true, Tags: r.Query(Observed{V: v}).([]Tag)}, true
	}
	return OR{V: v, Tags: []Tag{r.Query(NextTag{Proc: proc}).(Tag)}}, true
}

// IssueLWW stamps the LWW-set update one past the highest clock the
// process has folded, with its id as tie-break.
func IssueLWW(r Querier, proc int, v string, del bool) (spec.Update, bool) {
	c := uint64(r.Query(MaxClock{}).(spec.CtrVal))
	return LWW{V: v, Del: del, Clock: c + 1, Proc: proc}, true
}

// NaiveSet applies insertions and deletions in delivery order with no
// conflict resolution. It is wait-free and pipelined consistent on a
// FIFO transport, but NOT eventually consistent: two replicas that
// receive concurrent I(x)/D(x) in different orders diverge forever.
// Proposition 1 proves this is not an implementation bug but a
// fundamental trade-off — experiment E3 demonstrates it with this
// type. It is the one baseline that keeps no log, and the one not safe
// for concurrent use: the simulator drives it from one goroutine.
type NaiveSet struct {
	id   int
	send func(payload []byte)
	s    spec.State
}

// NewNaiveSet returns process id's eager set; send broadcasts its
// updates, and the transport hands every arrival to Deliver.
func NewNaiveSet(id int, send func(payload []byte)) *NaiveSet {
	return &NaiveSet{id: id, send: send, s: spec.Set().Initial()}
}

// Update applies u locally, then broadcasts it.
func (n *NaiveSet) Update(u spec.Update) {
	b, err := spec.Set().EncodeUpdate(u)
	if err != nil {
		panic(err)
	}
	spec.Set().Apply(n.s, u)
	n.send(b)
}

// Deliver applies a peer's update on arrival; the self copy a
// transport delivers is ignored, Update having applied it already.
func (n *NaiveSet) Deliver(from int, payload []byte) {
	if from == n.id {
		return
	}
	u, err := spec.Set().DecodeUpdate(payload)
	if err != nil {
		panic(err)
	}
	spec.Set().Apply(n.s, u)
}

// Query evaluates a set query on the current state.
func (n *NaiveSet) Query(in spec.QueryInput) spec.QueryOutput { return spec.Set().Query(n.s, in) }
