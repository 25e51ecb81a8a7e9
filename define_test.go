package updatec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// peakSpec is a user-defined UQ-ADT living entirely outside the
// library: a map from player to best score, merged by max (so all
// updates commute). It implements Codec for the wire and Partitionable
// for WithShards/Resize — the same capability surface the examples
// demonstrate, exercised here through chaos schedules, real sockets and
// live resharding.
type peakScore struct {
	Player string
	Points int64
}

type peakTop struct{}

type peakBest struct{ Player string }

type peakSpec struct{}

func (peakSpec) Name() string   { return "peakmap" }
func (peakSpec) Initial() State { return map[string]int64{} }

func (peakSpec) Apply(s State, u Update) State {
	m, sc := s.(map[string]int64), u.(peakScore)
	if sc.Points > m[sc.Player] {
		m[sc.Player] = sc.Points
	}
	return m
}

func (peakSpec) Clone(s State) State {
	m := s.(map[string]int64)
	c := make(map[string]int64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (peakSpec) Query(s State, in QueryInput) QueryOutput {
	m := s.(map[string]int64)
	switch q := in.(type) {
	case peakBest:
		return m[q.Player]
	case peakTop:
		out := make([]string, 0, len(m))
		for p, v := range m {
			out = append(out, fmt.Sprintf("%s:%d", p, v))
		}
		sort.Strings(out)
		return out
	}
	panic(fmt.Sprintf("peakmap: unknown query %T", in))
}

func (peakSpec) EqualOutput(a, b QueryOutput) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

func (peakSpec) KeyState(s State) string {
	m := s.(map[string]int64)
	parts := make([]string, 0, len(m))
	for p, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%d", p, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (peakSpec) EncodeUpdate(u Update) ([]byte, error) {
	sc := u.(peakScore)
	b := binary.AppendUvarint(nil, uint64(len(sc.Player)))
	b = append(b, sc.Player...)
	return binary.AppendUvarint(b, uint64(sc.Points)), nil
}

func (peakSpec) DecodeUpdate(b []byte) (Update, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, fmt.Errorf("peakmap: truncated update")
	}
	player := string(b[n : n+int(l)])
	pts, m := binary.Uvarint(b[n+int(l):])
	if m <= 0 {
		return nil, fmt.Errorf("peakmap: truncated score")
	}
	return peakScore{Player: player, Points: int64(pts)}, nil
}

// peakSpec's StateCodec, for snapshots of a compacted log: the entry
// count, then each player's name and best score, in player order.
func (peakSpec) EncodeState(s State) ([]byte, error) {
	m := s.(map[string]int64)
	players := make([]string, 0, len(m))
	for p := range m {
		players = append(players, p)
	}
	sort.Strings(players)
	b := binary.AppendUvarint(nil, uint64(len(m)))
	for _, p := range players {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
		b = binary.AppendVarint(b, m[p])
	}
	return b, nil
}

func (peakSpec) DecodeState(b []byte) (State, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return nil, fmt.Errorf("peakmap: malformed state count")
	}
	b = b[n:]
	m := make(map[string]int64, count)
	for ; count > 0; count-- {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return nil, fmt.Errorf("peakmap: truncated player")
		}
		p := string(b[n : n+int(l)])
		v, m2 := binary.Varint(b[n+int(l):])
		if m2 <= 0 {
			return nil, fmt.Errorf("peakmap: truncated score")
		}
		m[p] = v
		b = b[n+int(l)+m2:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("peakmap: %d trailing state bytes", len(b))
	}
	return m, nil
}

// peakSpec's QueryCodec, for Dial clients: an input is a tag byte (0 for
// Top, 1 for Best) and then Best's player; Best answers a varint, Top a
// run of length-prefixed strings.
func (peakSpec) AppendQueryInput(dst []byte, in QueryInput) ([]byte, error) {
	switch q := in.(type) {
	case peakTop:
		return append(dst, 0), nil
	case peakBest:
		return append(append(dst, 1), q.Player...), nil
	}
	return dst, fmt.Errorf("peakmap: unknown query %T", in)
}

func (peakSpec) DecodeQueryInput(b []byte) (QueryInput, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return peakTop{}, nil
	case len(b) > 0 && b[0] == 1:
		return peakBest{Player: string(b[1:])}, nil
	}
	return nil, fmt.Errorf("peakmap: malformed query input")
}

func (peakSpec) AppendQueryOutput(dst []byte, out QueryOutput) ([]byte, error) {
	switch v := out.(type) {
	case int64:
		return binary.AppendVarint(dst, v), nil
	case []string:
		for _, s := range v {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		return dst, nil
	}
	return dst, fmt.Errorf("peakmap: unknown output %T", out)
}

func (peakSpec) DecodeQueryOutput(in QueryInput, b []byte) (QueryOutput, error) {
	switch in.(type) {
	case peakBest:
		v, n := binary.Varint(b)
		if n <= 0 || n != len(b) {
			return nil, fmt.Errorf("peakmap: malformed score")
		}
		return v, nil
	case peakTop:
		out := []string{}
		for len(b) > 0 {
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("peakmap: truncated top list")
			}
			out = append(out, string(b[n:n+int(l)]))
			b = b[n+int(l):]
		}
		return out, nil
	}
	return nil, fmt.Errorf("peakmap: unknown query %T", in)
}

func (peakSpec) UpdateKey(u Update) string { return u.(peakScore).Player }

func (peakSpec) QueryKey(in QueryInput) (string, bool) {
	if q, ok := in.(peakBest); ok {
		return q.Player, true
	}
	return "", false
}

func (peakSpec) MergeInto(dst, src State) State {
	d := dst.(map[string]int64)
	for k, v := range src.(map[string]int64) {
		d[k] = v
	}
	return d
}

func (peakSpec) UnmergeFrom(dst, src State) State {
	d := dst.(map[string]int64)
	for k := range src.(map[string]int64) {
		delete(d, k)
	}
	return d
}

func (peakSpec) ExtractRange(s State, keep func(key string) bool) (State, int) {
	m := s.(map[string]int64)
	out := map[string]int64{}
	for k, v := range m {
		if keep(k) {
			out[k] = v
			delete(m, k)
		}
	}
	return out, len(out)
}

func (peakSpec) CommutativeUpdates() bool { return true }

// peakBoard is the application-typed handle.
type peakBoard struct{ p Handle }

func (b peakBoard) Score(player string, pts int64) { b.p.Update(peakScore{player, pts}) }
func (b peakBoard) Best(player string) int64       { return b.p.Query(peakBest{player}).(int64) }
func (b peakBoard) Top() []string                  { return b.p.Query(peakTop{}).([]string) }

// peakObject registers the custom descriptor once per test binary —
// after this, the chaos harness, the wire daemon and the registry treat
// it exactly like a built-in.
var peakObject = MustDefine("peakmap", peakSpec{}, nil,
	func(p Handle) peakBoard { return peakBoard{p} },
	WithOmega(peakTop{}),
	WithWorkload(func(rng *rand.Rand, key string) Update {
		return peakScore{Player: key, Points: rng.Int63n(1000)}
	}),
)

// peakNoQueries is peakmap without its QueryCodec: the spec and its
// update codec, and nothing else.
var peakNoQueries = MustDefine("peakmap-noquery", struct {
	Spec
	Codec
}{peakSpec{}, peakSpec{}}, nil, func(p Handle) peakBoard { return peakBoard{p} })

func TestDefineRegistryExposesCustomObject(t *testing.T) {
	found := false
	for _, n := range Objects() {
		if n == "peakmap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Objects() = %v is missing the Define-registered peakmap", Objects())
	}
	dyn, err := Lookup("peakmap")
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Name() != "peakmap" {
		t.Fatalf("Lookup returned %q", dyn.Name())
	}
	if _, ok := dyn.Omega(); !ok {
		t.Fatal("descriptor lost its ω query through the registry")
	}
	if _, ok := dyn.RandomUpdate(rand.New(rand.NewSource(1)), "k"); !ok {
		t.Fatal("descriptor lost its workload generator through the registry")
	}
	if _, err := Lookup("no-such-object"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Lookup(no-such-object) = %v, want ErrUnknownObject", err)
	}
}

func TestDefineValidationErrors(t *testing.T) {
	wrap := func(p Handle) peakBoard { return peakBoard{p} }
	if _, err := Define("peakmap", peakSpec{}, nil, wrap); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("duplicate Define = %v, want ErrDuplicateObject", err)
	}
	if _, err := Define("", peakSpec{}, nil, wrap); !errors.Is(err, ErrBadObject) {
		t.Fatalf("empty name = %v, want ErrBadObject", err)
	}
	if _, err := Define[peakBoard]("x-nil-spec", nil, nil, wrap); !errors.Is(err, ErrBadObject) {
		t.Fatalf("nil spec = %v, want ErrBadObject", err)
	}
	if _, err := Define[peakBoard]("x-nil-wrap", peakSpec{}, nil, nil); !errors.Is(err, ErrBadObject) {
		t.Fatalf("nil wrap = %v, want ErrBadObject", err)
	}
	// Narrowing the spec to the bare UQADT interface hides the codec
	// methods: Define must demand one.
	type specOnly struct{ Spec }
	if _, err := Define("x-no-codec", specOnly{peakSpec{}}, nil, wrap); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("codec-less spec = %v, want ErrNoCodec", err)
	}
}

func TestDefineOptionErrGates(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"zero replicas", func() error { _, _, err := New(0, peakObject); return err }(), ErrBadOption},
		{"zero shards", func() error { _, _, err := New(2, peakObject, WithShards(0)); return err }(), ErrBadOption},
		{"unknown level", func() error { _, _, err := New(2, peakObject, WithConsistency(Level(42))); return err }(), ErrBadOption},
		{"shards on non-partitionable", func() error { _, _, err := New(2, CounterObject(), WithShards(4)); return err }(), ErrUnsupported},
		{"causal+shards", func() error {
			_, _, err := New(2, peakObject, WithConsistency(Causal), WithShards(2))
			return err
		}(), ErrUnsupported},
		{"causal+resize", func() error {
			cl, _, err := New(2, peakObject, WithConsistency(Causal))
			if err != nil {
				return nil
			}
			defer cl.Close()
			return cl.Resize(2)
		}(), ErrUnsupported},
	} {
		if tc.err == nil {
			t.Fatalf("%s: option combination was accepted", tc.name)
		}
		if !errors.Is(tc.err, tc.want) {
			t.Fatalf("%s: %v, want errors.Is %v", tc.name, tc.err, tc.want)
		}
	}
	// The causal level is the log with gated visibility, so the log's
	// options compose with it.
	for name, opts := range map[string][]Option{
		"causal+gc":     {WithGC()},
		"causal+engine": {withReplayEngine()},
	} {
		cl, _, err := New(2, RegisterObject(""), append(opts, WithConsistency(Causal))...)
		if err != nil {
			t.Fatalf("%s: %v, want accepted", name, err)
		}
		cl.Close()
	}
}

// TestDefineShardedResizeConvergence drives the custom object sharded
// on the live transport, resizes mid-traffic, and requires convergence
// — the Partitionable capability end to end.
func TestDefineShardedResizeConvergence(t *testing.T) {
	cl, boards, err := New(3, peakObject, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	players := []string{"alice", "bob", "carol", "dave"}
	var wg sync.WaitGroup
	for i, b := range boards {
		wg.Add(1)
		go func(i int, b peakBoard) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 50; j++ {
				b.Score(players[rng.Intn(len(players))], rng.Int63n(500))
			}
		}(i, b)
	}
	wg.Wait()
	if err := cl.Resize(8); err != nil {
		t.Fatal(err)
	}
	boards[1].Score("erin", 700)
	cl.Settle()
	if !cl.Converged() {
		t.Fatal("sharded custom object did not converge across Resize")
	}
	if got := boards[2].Best("erin"); got != 700 {
		t.Fatalf("Best(erin) = %d after resize, want 700", got)
	}
}

// TestDefineWireLoopbackConvergence runs the custom object on real
// loopback daemons: the registry name travels in the hello, the custom
// codec carries the updates, and the cluster must reach the in-process
// reference state.
func TestDefineWireLoopbackConvergence(t *testing.T) {
	runWireInProcess(t, peakObject, 2, true, func(hs []peakBoard) {
		for i, h := range hs {
			for j := 0; j < 20; j++ {
				h.Score(fmt.Sprintf("p%d", j%5), int64(100*i+j))
			}
		}
	})
}

// TestDefineWireDialQueries covers the query path for a custom object:
// typed queries round-trip through Dial against a live daemon, in the
// object's own QueryCodec.
func TestDefineWireDialQueries(t *testing.T) {
	node := serveWire(t, peakObject, WireConfig{ID: 0, Peers: wireAddrs(t, 1)})
	c, err := Dial(peakObject, node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Handle()
	b.Score("alice", 420)
	b.Score("alice", 97) // lower: must not regress the max
	if got := b.Best("alice"); got != 420 {
		t.Fatalf("Best(alice) = %d over the wire, want 420", got)
	}
	if top := b.Top(); len(top) != 1 || top[0] != "alice:420" {
		t.Fatalf("Top() = %v over the wire", top)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDefineWireNoQueryCodec: an object without a QueryCodec still takes
// updates over Dial. Its queries fail with ErrNoCodec before anything is
// sent, so the connection stays aligned and keeps working; a daemon asked
// such a query anyway answers with the same error.
func TestDefineWireNoQueryCodec(t *testing.T) {
	node := serveWire(t, peakNoQueries, WireConfig{ID: 0, Peers: wireAddrs(t, 1)})
	empty := node.StateKey()
	c, err := Dial(peakNoQueries, node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := c.Handle()
	b.Score("alice", 420)
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrNoCodec) {
				t.Fatalf("query without a QueryCodec panicked with %v, want ErrNoCodec", err)
			}
		}()
		b.Best("alice")
	}()
	key, err := c.StateKey()
	if err != nil {
		t.Fatalf("StateKey after the refused query: %v", err)
	}
	if key == empty || key != node.StateKey() {
		t.Fatalf("client key %q, daemon key %q, empty key %q: the update did not land", key, node.StateKey(), empty)
	}
	if _, err := node.answerQuery(nil, []byte{0}); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("daemon answered a query without a QueryCodec with %v, want ErrNoCodec", err)
	}
}

// TestDefineWireObjectMismatch pins the handshake check: a client built
// for one object dialing a daemon serving another fails its first
// round-trip with ErrObjectMismatch instead of corrupting state.
func TestDefineWireObjectMismatch(t *testing.T) {
	node := serveWire(t, peakObject, WireConfig{ID: 0, Peers: wireAddrs(t, 1)})
	empty := node.StateKey()
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.StateKey(); !errors.Is(err, ErrObjectMismatch) {
		t.Fatalf("StateKey on a mismatched connection = %v, want ErrObjectMismatch", err)
	}
	if err := c.Err(); !errors.Is(err, ErrObjectMismatch) {
		t.Fatalf("Err() = %v, want the sticky ErrObjectMismatch", err)
	}
	if node.StateKey() != empty {
		t.Fatal("mismatched client must not have changed daemon state")
	}
}
