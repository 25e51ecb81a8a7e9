// Package spec implements the update-query abstract data type (UQ-ADT)
// formalism of Perrin, Mostéfaoui and Jard, "Update Consistency for
// Wait-free Concurrent Objects" (IPDPS 2015), Definition 1.
//
// A UQ-ADT is a transition system O = (U, Qi, Qo, S, s0, T, G): updates
// U are side-effecting operations with no return value; queries are pairs
// qi/qo of a query input and the output it returned. T is the transition
// function on states, G the output function. The set L(O) of sequential
// histories recognized by O is decided by Replay and ValidSequential.
//
// The package also provides the concrete data types used throughout the
// paper and its reproduction: the set S_Val (Example 1), a last-writer
// register, a commutative counter, the register-map memory of Algorithm 2,
// and queue/stack/log types whose mixed operations are split into
// update and query halves exactly as the paper prescribes for the stack
// ("lookup top" and "delete top").
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// State, Update, QueryInput and QueryOutput are the alphabet sorts of a
// UQ-ADT. They are deliberately untyped at this layer: each concrete
// UQADT documents its own concrete types, and the typed façades in
// internal/core recover static safety for library users.
type (
	// State is an abstract state s ∈ S of the transition system.
	State = any
	// Update is an update operation u ∈ U.
	Update = any
	// QueryInput is a query operation input qi ∈ Qi.
	QueryInput = any
	// QueryOutput is a query return value qo ∈ Qo.
	QueryOutput = any
)

// UQADT is Definition 1 of the paper: a sequential specification given as
// a (possibly infinite) transition system with an initial state, a
// transition function for updates and an output function for queries.
//
// Apply may mutate its argument state for efficiency; callers must use
// the returned State and must not touch the argument afterwards. To
// branch a state (as the consistency deciders do during linearization
// search), Clone it first. Query must never mutate the state, and its
// output must share nothing mutable with it: replicas keep folding
// updates into the state a cached output was read from.
type UQADT interface {
	// Name identifies the data type (e.g. "set", "memory").
	Name() string
	// Initial returns a fresh initial state s0. Distinct calls must
	// return states that do not alias each other.
	Initial() State
	// Apply is the transition function T: it returns the state reached
	// from s by update u. It may mutate and return s itself.
	Apply(s State, u Update) State
	// Clone returns a deep copy of s that shares no mutable structure.
	Clone(s State) State
	// Query is the output function G: the value returned by query input
	// in when applied in state s. It must not mutate s.
	Query(s State, in QueryInput) QueryOutput
	// EqualOutput reports whether two query outputs are equal values of
	// Qo. It is used to compare declared history outputs with replayed
	// outputs.
	EqualOutput(a, b QueryOutput) bool
	// KeyState returns a canonical encoding of s: two states are equal
	// iff their keys are equal. Deciders use it for memoization.
	KeyState(s State) string
}

// Undo reverses a previously applied update; it receives the state the
// update produced and must return the state the update was applied to.
// Like Apply, it may mutate its argument.
type Undo func(s State) State

// Undoable is implemented by specifications whose updates can be
// inverted given the pre-state. The undo-redo query engine of
// internal/core (the Karsenty–Beaudouin-Lafon optimization cited in
// §VII-C of the paper) requires it to splice late-arriving updates into
// the middle of the replay order without restarting from s0.
type Undoable interface {
	// ApplyUndo applies u to s and also returns an Undo closure that
	// reverses exactly this application.
	ApplyUndo(s State, u Update) (State, Undo)
}

// Observation is a query input together with the output a history claims
// it returned.
type Observation struct {
	In  QueryInput
	Out QueryOutput
}

// StateExplainer is implemented by specifications that can propose a
// state s ∈ S consistent with a set of observations, i.e. with
// G(s, o.In) = o.Out for every o. The state does not have to be
// reachable from s0 — eventual consistency (Definition 5) and strong
// convergence (Definition 6) quantify over all of S, not over reachable
// states, and the deciders in internal/check rely on that distinction.
type StateExplainer interface {
	// ExplainState returns (s, true) for some state consistent with all
	// observations, or (nil, false) if none exists.
	ExplainState(obs []Observation) (State, bool)
}

// Codec serializes updates to wire bytes. It is used by the transport
// layer to account for real message sizes (§VII-C measures message
// overhead: one broadcast per update, payload logarithmic in the clock
// and process count).
type Codec interface {
	EncodeUpdate(u Update) ([]byte, error)
	DecodeUpdate(b []byte) (Update, error)
}

// AppendCodec is an optional extension of Codec for allocation-free
// encoding on the update hot path: AppendUpdate appends the wire
// encoding of u to dst (growing it as needed) instead of returning a
// freshly allocated slice. Replicas stage outgoing messages in a
// reused scratch buffer through it, so issuing an update allocates
// only the payload handed to the transport.
type AppendCodec interface {
	Codec
	AppendUpdate(dst []byte, u Update) ([]byte, error)
}

// Commutative is implemented by specifications all of whose updates
// commute (T(T(s,u),u') = T(T(s,u'),u) for all s, u, u'). For such
// types every update linearization yields the same state, so the naive
// eager-apply implementation is already update consistent — the paper
// calls these "pure CRDTs" (counter, grow-only set).
type Commutative interface {
	// CommutativeUpdates reports that all pairs of updates commute.
	CommutativeUpdates() bool
}

// Masking is implemented by specifications where a later update can
// erase an earlier one: the register observation behind Algorithm 2
// (§VII-C) — an overwritten value can never be read again, so a replica
// needs only the latest update per register. MaskKey names what u
// overwrites. Implementations must satisfy, for all states s and
// updates u, u':
//
//   - masking: MaskKey(u) = MaskKey(u') ⇒ T(T(s,u'),u) = T(s,u), and
//   - independence: MaskKey(u) ≠ MaskKey(u') ⇒ T(T(s,u),u') = T(T(s,u'),u),
//
// so an update followed anywhere later in a linearization by one with
// the same mask key can be dropped from it without changing the state.
// The replica's log keeps one entry per mask key (core.Log).
type Masking interface {
	MaskKey(u Update) string
}

// Replay runs the word of updates from the initial state and returns the
// resulting state.
func Replay(adt UQADT, updates []Update) State {
	s := adt.Initial()
	for _, u := range updates {
		s = adt.Apply(s, u)
	}
	return s
}

// ReplayFrom runs the word of updates from a clone of the given state.
func ReplayFrom(adt UQADT, s State, updates []Update) State {
	t := adt.Clone(s)
	for _, u := range updates {
		t = adt.Apply(t, u)
	}
	return t
}

// Op is one element of a sequential history: either an update or a
// query observation. Exactly one of U and Q is meaningful, selected by
// IsQuery.
type Op struct {
	IsQuery bool
	U       Update
	Q       Observation
}

// UpdateOp wraps an update as a sequential-history element.
func UpdateOp(u Update) Op { return Op{U: u} }

// QueryOp wraps a query observation as a sequential-history element.
func QueryOp(in QueryInput, out QueryOutput) Op {
	return Op{IsQuery: true, Q: Observation{In: in, Out: out}}
}

// ValidSequential decides membership of a finite word in L(O)
// (Definition 1): it replays the word from s0 and checks every query
// output against G.
func ValidSequential(adt UQADT, word []Op) bool {
	s := adt.Initial()
	for _, op := range word {
		if op.IsQuery {
			got := adt.Query(s, op.Q.In)
			if !adt.EqualOutput(got, op.Q.Out) {
				return false
			}
			continue
		}
		s = adt.Apply(s, op.U)
	}
	return true
}

// FormatOp renders a sequential-history element using the paper's
// notation: updates print as themselves, queries as "in/out".
func FormatOp(op Op) string {
	if op.IsQuery {
		return fmt.Sprintf("%v/%v", op.Q.In, op.Q.Out)
	}
	return fmt.Sprint(op.U)
}

// FormatWord renders a sequential history with the paper's "·"
// separator, e.g. "I(1)·I(2)·R/{1, 2}".
func FormatWord(word []Op) string {
	parts := make([]string, len(word))
	for i, op := range word {
		parts[i] = FormatOp(op)
	}
	return strings.Join(parts, "·")
}

// Elems is the canonical query output for set-valued reads: a sorted
// slice of element names. It is also used as the set state rendering.
type Elems []string

// String renders the set contents in the paper's notation, e.g.
// "{1, 2}" or "∅" for the empty set.
func (e Elems) String() string {
	if len(e) == 0 {
		return "∅"
	}
	return "{" + strings.Join(e, ", ") + "}"
}

// canonElems sorts and deduplicates a copy of the given elements.
func canonElems(in []string) Elems {
	out := make([]string, 0, len(in))
	seen := make(map[string]bool, len(in))
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// equalElems compares two canonical element slices.
func equalElems(a, b Elems) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
