package history

import (
	"fmt"
	"strconv"
	"strings"

	"updatec/internal/spec"
)

// Parse reads a history from the textual notation used by the paper's
// figures and by cmd/uccheck. The first non-empty line names the data
// type; each following line is "pN: op op op ...". Query tokens carry
// their declared output after a slash; a trailing "ω" or "*" marks an
// ω query. Example (Figure 1(a)):
//
//	set
//	p0: I(1) R/{2} R/{1} R/∅ω
//	p1: I(2) R/{1} R/{2} R/∅ω
//
// Supported op grammars:
//
//	set:      I(v)  D(v)  R/{a, b}  R/∅  C(v)/⊤  C(v)/⊥
//	counter:  Inc(n)  Dec(n)  R/n
//	register: W(v)  R/v
//	memory:   W(k,v)  R(k)/v
//	queue:    Enq(v)  Deq  Front/v  Front/⊥
//	stack:    Push(v)  Pop  Top/v  Top/⊥
//	log:      App(v)  RL/[a;b;c]
func Parse(text string) (*History, error) {
	lines := strings.Split(text, "\n")
	var adtName string
	var procLines []string
	for _, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if adtName == "" {
			adtName = line
			continue
		}
		procLines = append(procLines, line)
	}
	if adtName == "" {
		return nil, fmt.Errorf("history: empty input")
	}
	adt, err := spec.ByName(adtName)
	if err != nil {
		return nil, err
	}
	b := New(adt)
	for _, line := range procLines {
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("history: process line %q missing ':'", line)
		}
		pr := b.Process()
		for _, tok := range strings.Fields(line[colon+1:]) {
			if err := parseToken(adtName, pr, tok); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// MustParse is Parse for fixtures with known-good inputs.
func MustParse(text string) *History {
	h, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return h
}

// Format renders a history back into Parse's input format.
func Format(h *History) string {
	var b strings.Builder
	b.WriteString(h.ADT().Name())
	b.WriteString("\n")
	for p := 0; p < h.NumProcs(); p++ {
		fmt.Fprintf(&b, "p%d:", p)
		for _, e := range h.Proc(p) {
			b.WriteString(" ")
			b.WriteString(formatToken(e))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatToken(e *Event) string {
	s := spec.FormatOp(e.Op())
	// The paper's set output "{1, 2}" contains a space; tokens are
	// whitespace-separated, so drop internal spaces when formatting.
	s = strings.ReplaceAll(s, ", ", ",")
	if e.Omega {
		s += "ω"
	}
	return s
}

func parseToken(adtName string, pr *Proc, tok string) error {
	omega := false
	for _, suffix := range []string{"ω", "^ω", "*"} {
		if strings.HasSuffix(tok, suffix) {
			omega = true
			tok = strings.TrimSuffix(tok, suffix)
			break
		}
	}
	in, out, isQuery, err := parseOp(adtName, tok)
	if err != nil {
		return err
	}
	if !isQuery {
		if omega {
			return fmt.Errorf("history: ω on update token %q", tok)
		}
		pr.Update(in)
		return nil
	}
	if omega {
		pr.QueryOmega(in, out)
	} else {
		pr.Query(in, out)
	}
	return nil
}

// parseOp returns (update, nil, false) for update tokens and
// (queryInput, queryOutput, true) for query tokens.
func parseOp(adtName, tok string) (any, spec.QueryOutput, bool, error) {
	arg := func(prefix string) (string, bool) {
		if strings.HasPrefix(tok, prefix+"(") && strings.HasSuffix(tok, ")") {
			return tok[len(prefix)+1 : len(tok)-1], true
		}
		return "", false
	}
	switch adtName {
	case "set", "gset":
		if v, ok := arg("I"); ok {
			return spec.Ins{V: v}, nil, false, nil
		}
		if v, ok := arg("D"); ok {
			return spec.Del{V: v}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "R/"); ok {
			elems, err := parseElems(rest)
			if err != nil {
				return nil, nil, false, err
			}
			return spec.Read{}, elems, true, nil
		}
		if strings.HasPrefix(tok, "C(") {
			// Split at the LAST ")/": the output is one fixed rune, the
			// element may contain ")/" itself.
			rest := tok[2:]
			close := strings.LastIndex(rest, ")/")
			if close < 0 {
				return nil, nil, false, fmt.Errorf("history: bad set membership query %q", tok)
			}
			switch rest[close+2:] {
			case "⊤":
				return spec.Has{V: rest[:close]}, spec.Bool(true), true, nil
			case "⊥":
				return spec.Has{V: rest[:close]}, spec.Bool(false), true, nil
			}
			return nil, nil, false, fmt.Errorf("history: bad set membership output %q", tok)
		}
	case "counter":
		if v, ok := arg("Inc"); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad Inc %q", tok)
			}
			return spec.Add{N: n}, nil, false, nil
		}
		if v, ok := arg("Dec"); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad Dec %q", tok)
			}
			return spec.Add{N: -n}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "R/"); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad counter read %q", tok)
			}
			return spec.Read{}, spec.CtrVal(n), true, nil
		}
	case "countermap":
		sign := int64(1)
		kv, ok := arg("Inc")
		if !ok {
			kv, ok = arg("Dec")
			sign = -1
		}
		if ok {
			// Split at the LAST comma: the delta is always an integer,
			// while the key may itself contain commas.
			cut := strings.LastIndex(kv, ",")
			if cut < 0 {
				return nil, nil, false, fmt.Errorf("history: bad countermap update %q", tok)
			}
			n, err := strconv.ParseInt(kv[cut+1:], 10, 64)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad countermap delta %q", tok)
			}
			return spec.AddKey{K: kv[:cut], N: sign * n}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "R*/"); ok {
			elems, err := parseElems(rest)
			if err != nil {
				return nil, nil, false, err
			}
			return spec.ReadAllCtrs{}, elems, true, nil
		}
		if strings.HasPrefix(tok, "R(") {
			rest := tok[2:]
			// Split at the LAST ")/": the value is an integer, the key
			// may contain ")/" itself.
			close := strings.LastIndex(rest, ")/")
			if close < 0 {
				return nil, nil, false, fmt.Errorf("history: bad countermap read %q", tok)
			}
			n, err := strconv.ParseInt(rest[close+2:], 10, 64)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad countermap read value %q", tok)
			}
			return spec.ReadCtr{K: rest[:close]}, spec.CtrVal(n), true, nil
		}
	case "register":
		if v, ok := arg("W"); ok {
			return spec.Write{V: v}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "R/"); ok {
			return spec.Read{}, spec.RegVal(rest), true, nil
		}
	case "memory":
		if kv, ok := arg("W"); ok {
			k, v, found := strings.Cut(kv, ",")
			if !found {
				return nil, nil, false, fmt.Errorf("history: bad memory write %q", tok)
			}
			return spec.WriteKey{K: k, V: v}, nil, false, nil
		}
		if strings.HasPrefix(tok, "R(") {
			rest := tok[2:]
			close := strings.Index(rest, ")/")
			if close < 0 {
				return nil, nil, false, fmt.Errorf("history: bad memory read %q", tok)
			}
			return spec.ReadKey{K: rest[:close]}, spec.RegVal(rest[close+2:]), true, nil
		}
	case "queue":
		if v, ok := arg("Enq"); ok {
			return spec.Enq{V: v}, nil, false, nil
		}
		if tok == "Deq" {
			return spec.DeqFront{}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "Front/"); ok {
			return spec.Front{}, spec.RegVal(rest), true, nil
		}
	case "stack":
		if v, ok := arg("Push"); ok {
			return spec.Push{V: v}, nil, false, nil
		}
		if tok == "Pop" {
			return spec.PopTop{}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "Top/"); ok {
			return spec.Top{}, spec.RegVal(rest), true, nil
		}
	case "log":
		if v, ok := arg("App"); ok {
			return spec.Append{V: v}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "RL/"); ok {
			lines, err := parseLines(rest, tok)
			if err != nil {
				return nil, nil, false, err
			}
			return spec.ReadLog{}, lines, true, nil
		}
	case "sequence":
		if body, ok := arg("InsAt"); ok {
			posStr, v, found := strings.Cut(body, ",")
			if !found {
				return nil, nil, false, fmt.Errorf("history: bad InsAt %q", tok)
			}
			pos, err := strconv.Atoi(posStr)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad InsAt position %q", tok)
			}
			return spec.InsAt{Pos: pos, V: v}, nil, false, nil
		}
		if body, ok := arg("DelAt"); ok {
			pos, err := strconv.Atoi(body)
			if err != nil {
				return nil, nil, false, fmt.Errorf("history: bad DelAt %q", tok)
			}
			return spec.DelAt{Pos: pos}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "RS/"); ok {
			lines, err := parseLines(rest, tok)
			if err != nil {
				return nil, nil, false, err
			}
			return spec.ReadSeq{}, lines, true, nil
		}
	case "graph":
		if v, ok := arg("AddV"); ok {
			return spec.AddV{V: v}, nil, false, nil
		}
		if v, ok := arg("RemV"); ok {
			return spec.RemV{V: v}, nil, false, nil
		}
		if body, ok := arg("AddE"); ok {
			u, v, found := strings.Cut(body, ",")
			if !found {
				return nil, nil, false, fmt.Errorf("history: bad AddE %q", tok)
			}
			return spec.AddE{U: u, V: v}, nil, false, nil
		}
		if body, ok := arg("RemE"); ok {
			u, v, found := strings.Cut(body, ",")
			if !found {
				return nil, nil, false, fmt.Errorf("history: bad RemE %q", tok)
			}
			return spec.RemE{U: u, V: v}, nil, false, nil
		}
		if rest, ok := strings.CutPrefix(tok, "RG/"); ok {
			g, err := parseGraphVal(rest)
			if err != nil {
				return nil, nil, false, err
			}
			return spec.ReadGraph{}, g, true, nil
		}
	}
	return nil, nil, false, fmt.Errorf("history: cannot parse %q token %q", adtName, tok)
}

// parseLines parses a "[a;b;c]" document literal.
func parseLines(rest, tok string) (spec.Lines, error) {
	if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return nil, fmt.Errorf("history: bad document literal %q", tok)
	}
	body := rest[1 : len(rest)-1]
	if body == "" {
		return spec.Lines(nil), nil
	}
	return spec.Lines(strings.Split(body, ";")), nil
}

// parseGraphVal parses a "(a,b|a→b,b→a)" graph literal.
func parseGraphVal(s string) (spec.GraphVal, error) {
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return spec.GraphVal{}, fmt.Errorf("history: bad graph literal %q", s)
	}
	body := s[1 : len(s)-1]
	vpart, epart, ok := strings.Cut(body, "|")
	if !ok {
		return spec.GraphVal{}, fmt.Errorf("history: graph literal %q missing '|'", s)
	}
	var g spec.GraphVal
	if vpart != "" {
		g.Vertices = strings.Split(vpart, ",")
	}
	if epart != "" {
		for _, e := range strings.Split(epart, ",") {
			u, v, ok := strings.Cut(e, "→")
			if !ok {
				u, v, ok = strings.Cut(e, "->")
			}
			if !ok {
				return spec.GraphVal{}, fmt.Errorf("history: bad edge %q", e)
			}
			g.Edges = append(g.Edges, [2]string{u, v})
		}
	}
	// Canonicalize through the spec.
	sp := spec.Graph()
	st := sp.Initial()
	for _, v := range g.Vertices {
		st = sp.Apply(st, spec.AddV{V: v})
	}
	for _, e := range g.Edges {
		st = sp.Apply(st, spec.AddE{U: e[0], V: e[1]})
	}
	return sp.Query(st, spec.ReadGraph{}).(spec.GraphVal), nil
}

func parseElems(s string) (spec.Elems, error) {
	if s == "∅" || s == "{}" {
		return spec.Elems{}, nil
	}
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("history: bad set literal %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return spec.Elems{}, nil
	}
	parts := strings.Split(body, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	// Canonicalize through the spec's query rendering.
	sp := spec.Set()
	st := sp.Initial()
	for _, v := range out {
		st = sp.Apply(st, spec.Ins{V: v})
	}
	return sp.Query(st, spec.Read{}).(spec.Elems), nil
}
