package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"updatec/internal/history"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// manualNet is a hand-cranked broadcast transport: self-delivery is
// inline (the Algorithm 1 contract), remote copies are buffered until
// the test releases them — in whatever order it likes, which is how
// the cache tests force genuinely late arrivals at one replica while
// readers hammer it from other goroutines. Safe for concurrent use.
type manualNet struct {
	mu       sync.Mutex
	handlers map[int]transport.Handler
	queued   map[int][]manualMsg
}

type manualMsg struct {
	from    int
	payload []byte
}

func newManualNet() *manualNet {
	return &manualNet{
		handlers: make(map[int]transport.Handler),
		queued:   make(map[int][]manualMsg),
	}
}

func (m *manualNet) Attach(id int, h transport.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[id] = h
}

func (m *manualNet) Broadcast(from int, payload []byte) {
	m.mu.Lock()
	self := m.handlers[from]
	for to := range m.handlers {
		if to != from {
			m.queued[to] = append(m.queued[to], manualMsg{from: from, payload: payload})
		}
	}
	m.mu.Unlock()
	if self != nil {
		self(from, payload)
	}
}

// deliver hands the i-th buffered message to its destination's
// handler (out-of-order pops model adversarial reordering).
func (m *manualNet) deliver(to, i int) {
	m.mu.Lock()
	q := m.queued[to]
	msg := q[i]
	m.queued[to] = append(q[:i], q[i+1:]...)
	h := m.handlers[to]
	m.mu.Unlock()
	h(msg.from, msg.payload)
}

func (m *manualNet) backlog(to int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queued[to])
}

// TestQueryCacheSoundUnderLateArrivals is the cache's soundness gate,
// run under -race by CI: reader goroutines spin on Query (keeping the
// version-keyed output cache hot) while the main goroutine delivers
// remote updates to the replica out of order — every late arrival
// splices into the log middle and triggers the undo engine's
// undo/redo. After every single delivery the replica's Query output
// is compared against a reference computed directly from the engine
// state: a cache entry surviving a version bump would surface here as
// a stale output for a newer version.
func TestQueryCacheSoundUnderLateArrivals(t *testing.T) {
	adt := spec.Set()
	net := newManualNet()
	reps := Cluster(3, adt, net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
	})
	rep := reps[0]

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = rep.Query(spec.Read{})
				}
			}
		}()
	}

	reference := func() spec.QueryOutput {
		var out spec.QueryOutput
		rep.ReadStateAt(func(s spec.State, _ uint64) { out = adt.Query(s, spec.Read{}) })
		return out
	}

	rng := rand.New(rand.NewSource(77))
	support := []string{"a", "b", "c", "d", "e"}
	for round := 0; round < 60; round++ {
		// A burst of remote updates buffers several envelopes, then
		// they are released in shuffled order: later timestamps first,
		// so the rest arrive late.
		for k := 0; k < 4; k++ {
			p := 1 + rng.Intn(2)
			v := support[rng.Intn(len(support))]
			if rng.Intn(3) == 0 {
				reps[p].Update(spec.Del{V: v})
			} else {
				reps[p].Update(spec.Ins{V: v})
			}
		}
		rep.Update(spec.Ins{V: support[rng.Intn(len(support))]})
		for net.backlog(0) > 0 {
			net.deliver(0, rng.Intn(net.backlog(0)))
			want := reference()
			if got := rep.Query(spec.Read{}); !adt.EqualOutput(got, want) {
				t.Fatalf("round %d: Query returned %v, state says %v (stale cache?)", round, got, want)
			}
		}
	}
	// Settled phase: with deliveries stopped, repeat reads (main and
	// readers alike) must be served from the cache.
	want := reference()
	for i := 0; i < 50; i++ {
		if got := rep.Query(spec.Read{}); !adt.EqualOutput(got, want) {
			t.Fatalf("settled query returned %v, want %v", got, want)
		}
	}
	close(done)
	wg.Wait()

	hits, misses := rep.QueryCacheStats()
	if hits == 0 {
		t.Fatalf("no query ever hit the cache (hits=0, misses=%d) — the test exercised nothing", misses)
	}
}

// TestQueryCacheHitsAndInvalidation: a repeat read of an unchanged
// replica is served from the cache; any log mutation (local update or
// remote delivery) invalidates by version compare, and the next read
// reflects the new state.
func TestQueryCacheHitsAndInvalidation(t *testing.T) {
	adt := spec.Set()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5})
	reps := Cluster(2, adt, net, ClusterOptions{
		NewEngine: func() Engine { return NewUndoEngine() },
	})
	rep := reps[0]
	rep.Update(spec.Ins{V: "x"})
	net.Quiesce()

	first := rep.Query(spec.Read{})
	_, m0 := rep.QueryCacheStats()
	for i := 0; i < 10; i++ {
		if got := rep.Query(spec.Read{}); !adt.EqualOutput(got, first) {
			t.Fatalf("repeat query changed: %v vs %v", got, first)
		}
	}
	hits, misses := rep.QueryCacheStats()
	if hits < 10 || misses != m0 {
		t.Fatalf("repeat reads not served from cache: hits=%d misses=%d (baseline misses %d)", hits, misses, m0)
	}

	// A remote delivery bumps the version: the cached output for the
	// old version must not be served.
	reps[1].Update(spec.Ins{V: "y"})
	net.Quiesce()
	got := rep.Query(spec.Read{})
	want := spec.Elems{"x", "y"}
	if !adt.EqualOutput(got, want) {
		t.Fatalf("post-delivery query %v, want %v", got, want)
	}
}

// TestQueryCacheBoundedManyKeys: more distinct query keys than the
// cache holds must stay correct (the cache wipes and refills; outputs
// never mix keys up).
func TestQueryCacheBoundedManyKeys(t *testing.T) {
	adt := spec.Memory("0")
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 6})
	reps := Cluster(2, adt, net, ClusterOptions{})
	const keys = 3 * maxQueryCacheEntries
	for k := 0; k < keys; k++ {
		reps[0].Update(spec.WriteKey{K: fmt.Sprintf("k%03d", k), V: fmt.Sprint(k)})
	}
	net.Quiesce()
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < keys; k++ {
			got := reps[0].Query(spec.ReadKey{K: fmt.Sprintf("k%03d", k)})
			if want := spec.RegVal(fmt.Sprint(k)); got != want {
				t.Fatalf("pass %d key %d: got %v, want %v", pass, k, got, want)
			}
		}
	}
}

// TestQueryCacheServesRecordingReplicas: recording used to bypass the
// output cache (the recorder needs every query); now a cache hit
// records the query event on the shared-lock path instead, so a
// recording replica gets the read-path win *and* a complete history.
// The counters prove hits occur in a recorded run, and the recorded
// history must hold every query with the correct output.
func TestQueryCacheServesRecordingReplicas(t *testing.T) {
	adt := spec.Set()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 7})
	rec := history.NewRecorder(adt, 2)
	reps := Cluster(2, adt, net, ClusterOptions{Recorder: rec})
	reps[0].Update(spec.Ins{V: "x"})
	net.Quiesce()
	const queries = 5
	for i := 0; i < queries; i++ {
		got := reps[0].Query(spec.Read{})
		if want := (spec.Elems{"x"}); !adt.EqualOutput(got, want) {
			t.Fatalf("query %d: got %v, want %v", i, got, want)
		}
	}
	hits, _ := reps[0].QueryCacheStats()
	if hits == 0 {
		t.Fatalf("recording replica never hit the query cache")
	}
	h, err := rec.History()
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, e := range h.Events() {
		if e.Proc == 0 && !e.IsUpdate() {
			recorded++
			if !adt.EqualOutput(e.QOut, spec.Elems{"x"}) {
				t.Fatalf("recorded query output %v, want [x]", e.QOut)
			}
		}
	}
	if recorded != queries {
		t.Fatalf("recorder saw %d queries, want %d (cache hits must still record)", recorded, queries)
	}
}

// TestQueryCacheServesGCReplicas: GC used to bypass the cache too (a
// query must feed the stability tracker's self-observation); now the
// stability tick rides the shared-lock hit path. Hits must occur, the
// self component of the tracker must keep advancing across cached
// reads, and compaction afterwards must still be sound.
func TestQueryCacheServesGCReplicas(t *testing.T) {
	adt := spec.Set()
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 8, FIFO: true})
	reps := Cluster(2, adt, net, ClusterOptions{GC: true, GCEvery: 4})
	for k := 0; k < 8; k++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(k)})
		reps[1].Update(spec.Ins{V: fmt.Sprint(k)})
	}
	net.Quiesce()
	selfBefore := reps[0].stab.Reached()[0]
	for i := 0; i < 5; i++ {
		reps[0].Query(spec.Read{})
	}
	hits, _ := reps[0].QueryCacheStats()
	if hits == 0 {
		t.Fatalf("GC replica never hit the query cache")
	}
	if selfAfter := reps[0].stab.Reached()[0]; selfAfter <= selfBefore {
		t.Fatalf("cached queries did not advance the stability self-observation: %d -> %d", selfBefore, selfAfter)
	}
	reps[0].ForceCompact()
	if got, want := reps[0].Query(spec.Read{}), elemsOf(8); !adt.EqualOutput(got, want) {
		t.Fatalf("post-compaction query %v, want %v", got, want)
	}
}

func elemsOf(n int) spec.Elems {
	out := make([]string, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, fmt.Sprint(k))
	}
	sort.Strings(out)
	return out
}
