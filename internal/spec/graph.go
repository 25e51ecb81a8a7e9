package spec

import (
	"fmt"
	"sort"
	"strings"
)

// The graph is the canonical example of an object with *internal
// invariants* across updates: an edge may only exist between present
// vertices, and removing a vertex removes its incident edges. CRDT
// constructions must weaken such invariants (the 2P2P-graph of the
// CRDT literature gives up on them under concurrency); the universal
// construction keeps them exactly, because every replica replays the
// same update linearization and the sequential semantics below hold
// state by state (Proposition 4 applies to "any UQ-ADT").

// AddV is the graph update "add vertex v".
type AddV struct{ V string }

// String renders the update, e.g. "AddV(a)".
func (a AddV) String() string { return fmt.Sprintf("AddV(%s)", a.V) }

// RemV is the graph update "remove vertex v (and its incident edges)".
type RemV struct{ V string }

// String renders the update.
func (r RemV) String() string { return fmt.Sprintf("RemV(%s)", r.V) }

// AddE is the graph update "add edge u→v". It is a no-op unless both
// endpoints are present — the sequential specification enforces
// referential integrity.
type AddE struct{ U, V string }

// String renders the update.
func (a AddE) String() string { return fmt.Sprintf("AddE(%s,%s)", a.U, a.V) }

// RemE is the graph update "remove edge u→v".
type RemE struct{ U, V string }

// String renders the update.
func (r RemE) String() string { return fmt.Sprintf("RemE(%s,%s)", r.U, r.V) }

// ReadGraph is the graph query: it returns the whole graph.
type ReadGraph struct{}

// String renders the query input.
func (ReadGraph) String() string { return "RG" }

// GraphVal is the graph query output: sorted vertices and edges.
type GraphVal struct {
	Vertices []string
	Edges    [][2]string
}

// String renders the graph as "(a,b|a→b)".
func (g GraphVal) String() string {
	var edges []string
	for _, e := range g.Edges {
		edges = append(edges, e[0]+"→"+e[1])
	}
	return "(" + strings.Join(g.Vertices, ",") + "|" + strings.Join(edges, ",") + ")"
}

// graphState is the mutable state: vertex set and edge set.
type graphState struct {
	vertices map[string]bool
	edges    map[[2]string]bool
}

// GraphSpec is the directed-graph UQ-ADT with referential integrity.
type GraphSpec struct{ builtinQueries }

// Graph returns the directed-graph UQ-ADT.
func Graph() GraphSpec { return GraphSpec{} }

// Name implements UQADT.
func (GraphSpec) Name() string { return "graph" }

// Initial implements UQADT.
func (GraphSpec) Initial() State {
	return &graphState{vertices: map[string]bool{}, edges: map[[2]string]bool{}}
}

// Apply implements UQADT.
func (GraphSpec) Apply(s State, u Update) State {
	g := s.(*graphState)
	switch op := u.(type) {
	case AddV:
		g.vertices[op.V] = true
	case RemV:
		delete(g.vertices, op.V)
		for e := range g.edges {
			if e[0] == op.V || e[1] == op.V {
				delete(g.edges, e)
			}
		}
	case AddE:
		if g.vertices[op.U] && g.vertices[op.V] {
			g.edges[[2]string{op.U, op.V}] = true
		}
	case RemE:
		delete(g.edges, [2]string{op.U, op.V})
	default:
		panic(fmt.Sprintf("spec: graph does not recognize update %T", u))
	}
	return g
}

// Clone implements UQADT.
func (GraphSpec) Clone(s State) State {
	g := s.(*graphState)
	c := &graphState{
		vertices: make(map[string]bool, len(g.vertices)),
		edges:    make(map[[2]string]bool, len(g.edges)),
	}
	for v := range g.vertices {
		c.vertices[v] = true
	}
	for e := range g.edges {
		c.edges[e] = true
	}
	return c
}

// Query implements UQADT.
func (GraphSpec) Query(s State, in QueryInput) QueryOutput {
	if _, ok := in.(ReadGraph); !ok {
		panic(fmt.Sprintf("spec: graph does not recognize query %T", in))
	}
	return s.(*graphState).value()
}

func (g *graphState) value() GraphVal {
	out := GraphVal{Vertices: make([]string, 0, len(g.vertices)), Edges: make([][2]string, 0, len(g.edges))}
	for v := range g.vertices {
		out.Vertices = append(out.Vertices, v)
	}
	sort.Strings(out.Vertices)
	for e := range g.edges {
		out.Edges = append(out.Edges, e)
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	return out
}

// EqualOutput implements UQADT.
func (GraphSpec) EqualOutput(a, b QueryOutput) bool {
	ga, ok := a.(GraphVal)
	if !ok {
		return false
	}
	gb, ok := b.(GraphVal)
	if !ok {
		return false
	}
	return ga.String() == gb.String()
}

// KeyState implements UQADT.
func (GraphSpec) KeyState(s State) string { return s.(*graphState).value().String() }

// ApplyUndo implements Undoable. RemV's undo must restore the removed
// incident edges, not only the vertex.
func (sp GraphSpec) ApplyUndo(s State, u Update) (State, Undo) {
	g := s.(*graphState)
	switch op := u.(type) {
	case AddV:
		if g.vertices[op.V] {
			return g, func(t State) State { return t }
		}
		g.vertices[op.V] = true
		v := op.V
		return g, func(t State) State {
			delete(t.(*graphState).vertices, v)
			return t
		}
	case RemV:
		if !g.vertices[op.V] {
			return g, func(t State) State { return t }
		}
		var removed [][2]string
		for e := range g.edges {
			if e[0] == op.V || e[1] == op.V {
				removed = append(removed, e)
				delete(g.edges, e)
			}
		}
		delete(g.vertices, op.V)
		v := op.V
		return g, func(t State) State {
			tg := t.(*graphState)
			tg.vertices[v] = true
			for _, e := range removed {
				tg.edges[e] = true
			}
			return t
		}
	case AddE:
		e := [2]string{op.U, op.V}
		if !g.vertices[op.U] || !g.vertices[op.V] || g.edges[e] {
			return g, func(t State) State { return t }
		}
		g.edges[e] = true
		return g, func(t State) State {
			delete(t.(*graphState).edges, e)
			return t
		}
	case RemE:
		e := [2]string{op.U, op.V}
		if !g.edges[e] {
			return g, func(t State) State { return t }
		}
		delete(g.edges, e)
		return g, func(t State) State {
			t.(*graphState).edges[e] = true
			return t
		}
	default:
		panic(fmt.Sprintf("spec: graph does not recognize update %T", u))
	}
}

// ExplainState implements StateExplainer: the graph read reveals the
// whole state, and the state must itself satisfy referential
// integrity.
func (sp GraphSpec) ExplainState(obs []Observation) (State, bool) {
	if len(obs) == 0 {
		return sp.Initial(), true
	}
	first, ok := obs[0].Out.(GraphVal)
	if !ok {
		return nil, false
	}
	for _, o := range obs[1:] {
		if !sp.EqualOutput(first, o.Out) {
			return nil, false
		}
	}
	g := sp.Initial().(*graphState)
	for _, v := range first.Vertices {
		g.vertices[v] = true
	}
	for _, e := range first.Edges {
		if !g.vertices[e[0]] || !g.vertices[e[1]] {
			return nil, false // dangling edge: no reachable or legal state
		}
		g.edges[e] = true
	}
	return g, true
}

// EncodeUpdate implements Codec. Wire format: tag byte, then the
// NUL-separated operands.
func (sp GraphSpec) EncodeUpdate(u Update) ([]byte, error) {
	return sp.AppendUpdate(nil, u)
}

// AppendUpdate implements AppendCodec.
func (GraphSpec) AppendUpdate(dst []byte, u Update) ([]byte, error) {
	appendEdge := func(dst []byte, tag byte, from, to string) []byte {
		dst = append(dst, tag)
		dst = append(dst, from...)
		dst = append(dst, 0)
		return append(dst, to...)
	}
	switch op := u.(type) {
	case AddV:
		return append(append(dst, 'v'), op.V...), nil
	case RemV:
		return append(append(dst, 'V'), op.V...), nil
	case AddE:
		return appendEdge(dst, 'e', op.U, op.V), nil
	case RemE:
		return appendEdge(dst, 'E', op.U, op.V), nil
	default:
		return nil, fmt.Errorf("spec: graph does not recognize update %T", u)
	}
}

// DecodeUpdate implements Codec.
func (GraphSpec) DecodeUpdate(b []byte) (Update, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("spec: empty graph update")
	}
	body := string(b[1:])
	switch b[0] {
	case 'v':
		return AddV{V: body}, nil
	case 'V':
		return RemV{V: body}, nil
	case 'e', 'E':
		u, v, ok := strings.Cut(body, "\x00")
		if !ok {
			return nil, fmt.Errorf("spec: malformed graph edge update")
		}
		if b[0] == 'e' {
			return AddE{U: u, V: v}, nil
		}
		return RemE{U: u, V: v}, nil
	default:
		return nil, fmt.Errorf("spec: unknown graph update tag %q", b[0])
	}
}
