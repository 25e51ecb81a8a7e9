// Package history implements distributed histories (Definition 2 of the
// paper): countable sets of events labelled by update and query
// operations, partially ordered by a program order. In the
// communicating-sequential-processes model used by all of the paper's
// examples the program order is the union of per-process total orders,
// which is how histories are represented here.
//
// Infinite histories are encoded finitely with ω-annotations: a query
// event marked ω stands for an infinite suffix of identical query
// events issued by its process after its last update — exactly the
// "R/∅^ω" notation of Figures 1 and 2. ω events must be process-final;
// the Builder enforces this.
package history

import (
	"fmt"
	"strings"

	"updatec/internal/spec"
)

// Kind distinguishes update events from query events.
type Kind int

const (
	// Upd labels an update event (u ∈ U).
	Upd Kind = iota
	// Qry labels a query event (qi/qo ∈ Q).
	Qry
)

// Event is one element of E with its label Λ(e) and its position in the
// program order.
type Event struct {
	// ID is a dense global identifier, unique within the history.
	ID int
	// Proc is the process that issued the event.
	Proc int
	// Index is the event's position in its process's sequence.
	Index int
	// Kind selects which label fields are meaningful.
	Kind Kind
	// U is the update operation for Kind == Upd.
	U spec.Update
	// QIn and QOut are the query input and declared output for
	// Kind == Qry.
	QIn  spec.QueryInput
	QOut spec.QueryOutput
	// Omega marks a query repeated an infinite number of times; an ω
	// event is necessarily the last event of its process.
	Omega bool
	// Deps, when recorded, is the event's causal dependency vector:
	// Deps[q] is the number of process-q updates the issuer had applied
	// when it issued this event (for q == Proc, the issuer's own prior
	// updates). Causal-mode replicas record it; the CC decider gates
	// event consumption on it. Nil when the run carried no dependency
	// information — causality then degenerates to program order.
	Deps []uint64
}

// IsUpdate reports whether the event is an update event.
func (e *Event) IsUpdate() bool { return e.Kind == Upd }

// IsQuery reports whether the event is a query event.
func (e *Event) IsQuery() bool { return e.Kind == Qry }

// Observation returns the query observation of a query event.
func (e *Event) Observation() spec.Observation {
	return spec.Observation{In: e.QIn, Out: e.QOut}
}

// Op converts the event label to a sequential-history element.
func (e *Event) Op() spec.Op {
	if e.IsQuery() {
		return spec.QueryOp(e.QIn, e.QOut)
	}
	return spec.UpdateOp(e.U)
}

// String renders the event label in the paper's notation.
func (e *Event) String() string {
	s := spec.FormatOp(e.Op())
	if e.Omega {
		s += "^ω"
	}
	return s
}

// History is a distributed history over a UQ-ADT: per-process event
// sequences whose union of total orders is the program order 7→.
type History struct {
	adt   spec.UQADT
	procs [][]*Event
	byID  []*Event
}

// ADT returns the sequential specification the history is interpreted
// against.
func (h *History) ADT() spec.UQADT { return h.adt }

// NumProcs returns the number of processes.
func (h *History) NumProcs() int { return len(h.procs) }

// Proc returns process p's event sequence in program order.
func (h *History) Proc(p int) []*Event { return h.procs[p] }

// Events returns all events ordered by ID.
func (h *History) Events() []*Event { return h.byID }

// Event returns the event with the given ID.
func (h *History) Event(id int) *Event { return h.byID[id] }

// Updates returns all update events (U_H), ordered by ID.
func (h *History) Updates() []*Event {
	var out []*Event
	for _, e := range h.byID {
		if e.IsUpdate() {
			out = append(out, e)
		}
	}
	return out
}

// Queries returns all query events (Q_H), ordered by ID.
func (h *History) Queries() []*Event {
	var out []*Event
	for _, e := range h.byID {
		if e.IsQuery() {
			out = append(out, e)
		}
	}
	return out
}

// OmegaQueries returns all ω-annotated query events.
func (h *History) OmegaQueries() []*Event {
	var out []*Event
	for _, e := range h.byID {
		if e.IsQuery() && e.Omega {
			out = append(out, e)
		}
	}
	return out
}

// UpdateChains returns, per process, the subsequence of update events.
// These chains are the program-order constraints that any linearization
// of U_H must respect.
func (h *History) UpdateChains() [][]*Event {
	chains := make([][]*Event, len(h.procs))
	for p, seq := range h.procs {
		for _, e := range seq {
			if e.IsUpdate() {
				chains[p] = append(chains[p], e)
			}
		}
	}
	return chains
}

// Before reports the program order: a 7→ b. Within this representation
// that means same process, smaller index.
func (h *History) Before(a, b *Event) bool {
	return a.Proc == b.Proc && a.Index < b.Index
}

// PriorUpdates returns the set of update events that program-order
// precede e (as event IDs).
func (h *History) PriorUpdates(e *Event) []*Event {
	var out []*Event
	for _, f := range h.procs[e.Proc][:e.Index] {
		if f.IsUpdate() {
			out = append(out, f)
		}
	}
	return out
}

// String renders the history in the style of the paper's figures, one
// process per line.
func (h *History) String() string {
	var b strings.Builder
	for p, seq := range h.procs {
		fmt.Fprintf(&b, "p%d:", p)
		for _, e := range seq {
			b.WriteString(" ")
			b.WriteString(e.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Validate checks structural invariants: dense IDs, correct process and
// index back-references, ω events process-final, one dependency-vector
// entry per process, and (when the spec is known to reject them)
// malformed labels. Builder output always
// validates; histories arriving through Parse or hand construction are
// checked before the deciders run.
func (h *History) Validate() error {
	seen := 0
	for p, seq := range h.procs {
		for i, e := range seq {
			if e.Proc != p || e.Index != i {
				return fmt.Errorf("history: event %d has position (%d,%d), stored at (%d,%d)", e.ID, e.Proc, e.Index, p, i)
			}
			if e.Omega {
				if !e.IsQuery() {
					return fmt.Errorf("history: ω event %d is not a query", e.ID)
				}
				if i != len(seq)-1 {
					return fmt.Errorf("history: ω event %d is not process-final", e.ID)
				}
			}
			if e.Deps != nil && len(e.Deps) != len(h.procs) {
				return fmt.Errorf("history: event %d has a %d-entry dependency vector, history has %d processes", e.ID, len(e.Deps), len(h.procs))
			}
			seen++
		}
	}
	if seen != len(h.byID) {
		return fmt.Errorf("history: %d events indexed, %d in processes", len(h.byID), seen)
	}
	for id, e := range h.byID {
		if e.ID != id {
			return fmt.Errorf("history: event at slot %d has ID %d", id, e.ID)
		}
	}
	return nil
}

// Builder assembles a History process by process.
type Builder struct {
	adt    spec.UQADT
	procs  [][]*Event
	nextID int
	err    error
}

// New returns a Builder for a history over the given UQ-ADT.
func New(adt spec.UQADT) *Builder {
	return &Builder{adt: adt}
}

// Proc is a handle appending events to one process's sequence.
type Proc struct {
	b *Builder
	p int
}

// Process adds a new process and returns its handle.
func (b *Builder) Process() *Proc {
	b.procs = append(b.procs, nil)
	return &Proc{b: b, p: len(b.procs) - 1}
}

func (b *Builder) append(p int, e *Event) {
	if b.err != nil {
		return
	}
	seq := b.procs[p]
	if len(seq) > 0 && seq[len(seq)-1].Omega {
		b.err = fmt.Errorf("history: process %d already ended with an ω query", p)
		return
	}
	e.ID = b.nextID
	e.Proc = p
	e.Index = len(seq)
	b.nextID++
	b.procs[p] = append(seq, e)
}

// Update appends an update event.
func (pr *Proc) Update(u spec.Update) *Proc {
	pr.b.append(pr.p, &Event{Kind: Upd, U: u})
	return pr
}

// Query appends a (finite) query event with its declared output.
func (pr *Proc) Query(in spec.QueryInput, out spec.QueryOutput) *Proc {
	pr.b.append(pr.p, &Event{Kind: Qry, QIn: in, QOut: out})
	return pr
}

// QueryOmega appends an ω query event; it must be the process's last.
func (pr *Proc) QueryOmega(in spec.QueryInput, out spec.QueryOutput) *Proc {
	pr.b.append(pr.p, &Event{Kind: Qry, QIn: in, QOut: out, Omega: true})
	return pr
}

// UpdateDeps appends an update event carrying its causal dependency
// vector (see Event.Deps).
func (pr *Proc) UpdateDeps(u spec.Update, deps []uint64) *Proc {
	pr.b.append(pr.p, &Event{Kind: Upd, U: u, Deps: deps})
	return pr
}

// QueryDeps appends a query event carrying its causal dependency
// vector.
func (pr *Proc) QueryDeps(in spec.QueryInput, out spec.QueryOutput, deps []uint64) *Proc {
	pr.b.append(pr.p, &Event{Kind: Qry, QIn: in, QOut: out, Deps: deps})
	return pr
}

// QueryOmegaDeps appends an ω query event carrying its causal
// dependency vector.
func (pr *Proc) QueryOmegaDeps(in spec.QueryInput, out spec.QueryOutput, deps []uint64) *Proc {
	pr.b.append(pr.p, &Event{Kind: Qry, QIn: in, QOut: out, Omega: true, Deps: deps})
	return pr
}

// Build finalizes the history.
func (b *Builder) Build() (*History, error) {
	if b.err != nil {
		return nil, b.err
	}
	h := &History{adt: b.adt, procs: b.procs}
	for _, seq := range b.procs {
		h.byID = append(h.byID, seq...)
	}
	// byID must be ordered by ID; rebuild positionally.
	ordered := make([]*Event, len(h.byID))
	for _, e := range h.byID {
		ordered[e.ID] = e
	}
	h.byID = ordered
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// MustBuild is Build for tests and fixtures with known-good inputs.
func (b *Builder) MustBuild() *History {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}
