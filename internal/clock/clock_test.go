package clock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimestampOrder(t *testing.T) {
	a := Timestamp{Clock: 1, Proc: 2}
	b := Timestamp{Clock: 2, Proc: 0}
	c := Timestamp{Clock: 2, Proc: 1}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatalf("lexicographic order broken")
	}
	if a.Compare(a) != 0 || a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Fatalf("Compare inconsistent")
	}
}

func TestTimestampOrderIsTotal(t *testing.T) {
	// Distinct (clock, proc) pairs are always strictly ordered: the
	// property Algorithm 1 needs to turn Lamport's pre-total order into
	// a total order.
	f := func(c1, c2 uint8, p1, p2 uint8) bool {
		a := Timestamp{Clock: uint64(c1), Proc: int(p1)}
		b := Timestamp{Clock: uint64(c2), Proc: int(p2)}
		if a == b {
			return a.Compare(b) == 0
		}
		return a.Less(b) != b.Less(a) && a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampCodec(t *testing.T) {
	f := func(cl uint64, p uint16) bool {
		ts := Timestamp{Clock: cl, Proc: int(p)}
		b := ts.Encode(nil)
		got, n, err := DecodeTimestamp(b)
		return err == nil && n == len(b) && got == ts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeTimestamp(nil); err == nil {
		t.Fatalf("decoding empty input should fail")
	}
}

func TestTimestampEncodingIsCompact(t *testing.T) {
	// §VII-C: the timestamp only grows logarithmically with the number
	// of processes and operations. Small values must stay in 2 bytes.
	small := Timestamp{Clock: 5, Proc: 3}.Encode(nil)
	if len(small) != 2 {
		t.Fatalf("small timestamp should use 2 bytes, used %d", len(small))
	}
	big := Timestamp{Clock: 1 << 40, Proc: 1000}.Encode(nil)
	if len(big) > 8 {
		t.Fatalf("large timestamp should stay compact, used %d", len(big))
	}
}

func TestLamport(t *testing.T) {
	var l AtomicLamport
	if l.Tick() != 1 || l.Tick() != 2 {
		t.Fatalf("tick sequence wrong")
	}
	l.Observe(10)
	if l.Now() != 10 {
		t.Fatalf("observe should lift the clock")
	}
	l.Observe(4)
	if l.Now() != 10 {
		t.Fatalf("observe must not lower the clock")
	}
	if l.Tick() != 11 {
		t.Fatalf("tick after observe wrong")
	}
}

func TestLamportHappenedBefore(t *testing.T) {
	// Simulate two processes exchanging a message: the receiver's next
	// event must be stamped after the sender's send event.
	var p0, p1 AtomicLamport
	send := p0.Tick()
	p1.Observe(send)
	recvNext := p1.Tick()
	if recvNext <= send {
		t.Fatalf("happened-before violated: send=%d recvNext=%d", send, recvNext)
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	v.Merge(Vector{1, 5, 2})
	v.Merge(Vector{3, 1, 2})
	want := Vector{3, 5, 2}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("merge: got %v want %v", v, want)
		}
	}
	if v.Min() != 2 {
		t.Fatalf("min: got %d", v.Min())
	}
	if !(Vector{1, 1, 1}).LessEq(v) || v.LessEq(Vector{1, 1, 1}) {
		t.Fatalf("LessEq wrong")
	}
}

func TestVectorCodec(t *testing.T) {
	f := func(a, b, c uint32) bool {
		v := Vector{uint64(a), uint64(b), uint64(c)}
		buf := v.Encode(nil)
		got, n, err := DecodeVector(buf)
		if err != nil || n != len(buf) || len(got) != 3 {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStabilityHorizon(t *testing.T) {
	s := NewStability(3, 0)
	s.ObserveSelf(5)
	if s.Horizon() != 0 {
		t.Fatalf("horizon should wait for all peers")
	}
	s.ObservePeer(1, 4)
	s.ObservePeer(2, 6)
	if s.Horizon() != 4 {
		t.Fatalf("horizon: got %d want 4", s.Horizon())
	}
	if !s.Stable(Timestamp{Clock: 4, Proc: 2}) {
		t.Fatalf("(4,2) should be stable at horizon 4")
	}
	if s.Stable(Timestamp{Clock: 5, Proc: 0}) {
		t.Fatalf("(5,0) should not be stable at horizon 4")
	}
}

func TestStabilityRetire(t *testing.T) {
	s := NewStability(3, 0)
	s.ObserveSelf(9)
	s.ObservePeer(1, 7)
	// Process 2 crashed before sending anything: horizon frozen at 0.
	if s.Horizon() != 0 {
		t.Fatalf("horizon should be 0 before retire")
	}
	s.Retire(2)
	if s.Horizon() != 7 {
		t.Fatalf("horizon after retire: got %d want 7", s.Horizon())
	}
}

func TestStabilityVectorPiggyback(t *testing.T) {
	a := NewStability(2, 0)
	b := NewStability(2, 1)
	a.ObserveSelf(3)
	b.ObserveSelf(5)
	b.ObserveVector(a.Reached())
	if b.Horizon() != 3 {
		t.Fatalf("b horizon: got %d want 3", b.Horizon())
	}
}

// TestQuickStabilityNeverExceedsTrueMin: the horizon must never exceed
// the true minimum of what each process has reached — otherwise GC
// could drop an update that can still be reordered.
func TestQuickStabilityNeverExceedsTrueMin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		true2 := make([]uint64, n)
		s := NewStability(n, 0)
		for i := 0; i < 50; i++ {
			j := r.Intn(n)
			c := uint64(r.Intn(100))
			if c > true2[j] {
				true2[j] = c
			}
			if j == 0 {
				s.ObserveSelf(c)
			} else {
				s.ObservePeer(j, c)
			}
			sorted := append([]uint64(nil), true2...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			if s.Horizon() > sorted[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicLamportTickN(t *testing.T) {
	// TickN reserves a contiguous stamp block: a batched writer stamps
	// a whole batch with one clock operation. TickN(k) returns
	// the highest stamp of the block [hi-k+1, hi], and the block never
	// overlaps a concurrent Tick or TickN.
	var l AtomicLamport
	if hi := l.TickN(3); hi != 3 {
		t.Fatalf("TickN(3) on a fresh clock = %d, want 3", hi)
	}
	if l.Tick() != 4 {
		t.Fatalf("tick after TickN did not continue the sequence")
	}
	l.Observe(100)
	if hi := l.TickN(5); hi != 105 {
		t.Fatalf("TickN(5) after Observe(100) = %d, want 105", hi)
	}

	// Concurrent reservations partition the stamp space: every block is
	// disjoint from every other.
	var l2 AtomicLamport
	const goroutines, blocks, k = 8, 50, 7
	his := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < blocks; i++ {
				his[g] = append(his[g], l2.TickN(k))
			}
		}(g)
	}
	wg.Wait()
	used := map[uint64]bool{}
	for _, hs := range his {
		for _, hi := range hs {
			for c := hi - k + 1; c <= hi; c++ {
				if used[c] {
					t.Fatalf("stamp %d reserved twice", c)
				}
				used[c] = true
			}
		}
	}
	if want := uint64(goroutines * blocks * k); l2.Now() != want {
		t.Fatalf("clock at %d after %d reservations, want %d", l2.Now(), goroutines*blocks, want)
	}
}
