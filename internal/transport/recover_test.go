package transport

import (
	"fmt"
	"testing"
)

// TestSimRecoverResumesDelivery: messages sent while a process is down
// are dropped (and counted as crash drops), messages sent after
// recovery arrive.
func TestSimRecoverResumesDelivery(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 1})
	logs := collect(net, 2)
	net.Crash(1)
	net.Broadcast(0, []byte("lost"))
	net.Quiesce()
	net.Recover(1)
	net.Broadcast(0, []byte("found"))
	net.Quiesce()
	if got := fmt.Sprint(*logs[1]); got != "[0:found]" {
		t.Fatalf("recovered process delivered %s, want only the post-recovery message", got)
	}
	st := net.Stats()
	if st.DroppedCrash != 1 || st.DroppedLink != 0 {
		t.Fatalf("stats attribute the loss wrong: %+v", st)
	}
}

// TestSimRecoverUnderFIFO: a crash punches a hole in every inbound
// link's sequence; Recover must re-seat the FIFO cursors so
// post-recovery traffic is deliverable and still in order.
func TestSimRecoverUnderFIFO(t *testing.T) {
	net := NewSim(SimOptions{N: 3, Seed: 2, FIFO: true})
	logs := collect(net, 3)
	net.Broadcast(0, []byte("a"))
	net.Quiesce()
	net.Crash(2)
	for i := 0; i < 5; i++ {
		net.Broadcast(0, []byte("hole"))
	}
	net.Quiesce()
	net.Recover(2)
	net.Broadcast(0, []byte("b"))
	net.Broadcast(0, []byte("c"))
	net.Quiesce()
	if net.Pending() != 0 {
		t.Fatalf("FIFO link jammed after recovery: %d messages stuck", net.Pending())
	}
	if got := fmt.Sprint(*logs[2]); got != "[0:a 0:b 0:c]" {
		t.Fatalf("recovered process delivered %s, want [0:a 0:b 0:c] in order", got)
	}
}

// TestLinkFaultDrop: a lossy directed link drops some messages (counted
// as link drops), while the reverse direction and other links are
// untouched.
func TestLinkFaultDrop(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 3})
	logs := collect(net, 2)
	net.SetLinkFault(0, 1, LinkFault{Drop: 0.5})
	const sends = 200
	for i := 0; i < sends; i++ {
		net.Broadcast(0, []byte("x"))
		net.Broadcast(1, []byte("y"))
	}
	net.Quiesce()
	st := net.Stats()
	if st.DroppedLink == 0 {
		t.Fatal("Drop=0.5 over 200 sends dropped nothing")
	}
	if got := len(*logs[0]); got != 2*sends {
		t.Fatalf("reverse direction lost messages: p0 delivered %d, want %d", got, 2*sends)
	}
	// p1: its own self-deliveries plus whatever survived the faulty link.
	if got := len(*logs[1]); got != 2*sends-int(st.DroppedLink) {
		t.Fatalf("p1 delivered %d, want %d sent minus %d dropped", got, 2*sends, st.DroppedLink)
	}
}

// TestLinkFaultDup duplicates in order: on a FIFO link the duplicate is
// re-sequenced at the tail, so delivery stays legal and the receiver
// sees strictly more arrivals than broadcasts.
func TestLinkFaultDup(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 4, FIFO: true})
	logs := collect(net, 2)
	net.SetLinkFault(0, 1, LinkFault{Dup: 0.5})
	const sends = 200
	for i := 0; i < sends; i++ {
		net.Broadcast(0, []byte(fmt.Sprint(i)))
	}
	net.Quiesce()
	if net.Pending() != 0 {
		t.Fatalf("FIFO link jammed by duplication: %d stuck", net.Pending())
	}
	if got := len(*logs[1]); got <= sends {
		t.Fatalf("Dup=0.5 delivered %d arrivals over %d sends — no duplicates", got, sends)
	}
}

// TestSetLinkFaultValidates rejects out-of-range ids, self links and
// probabilities outside [0, 1).
func TestSetLinkFaultValidates(t *testing.T) {
	net := NewSim(SimOptions{N: 2, Seed: 1})
	for _, bad := range []func(){
		func() { net.SetLinkFault(0, 2, LinkFault{Drop: 0.1}) },
		func() { net.SetLinkFault(-1, 1, LinkFault{Drop: 0.1}) },
		func() { net.SetLinkFault(0, 0, LinkFault{Drop: 0.1}) },
		func() { net.SetLinkFault(0, 1, LinkFault{Drop: 1.0}) },
		func() { net.SetLinkFault(0, 1, LinkFault{Dup: -0.1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic for an invalid link fault")
				}
			}()
			bad()
		}()
	}
}

// TestClearedFaultsTakeNoFaultPath: once every fault is cleared — link
// by link or all at once — the per-message fault check is off again and
// no per-link override is left to look up, so a network that once had
// faults steps like one that never did. A zero override under a global
// fault still counts: the other links keep theirs.
func TestClearedFaultsTakeNoFaultPath(t *testing.T) {
	const n = 3
	net := NewSim(SimOptions{N: n, Seed: 1})
	each := func(f LinkFault) {
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from != to {
					net.SetLinkFault(from, to, f)
				}
			}
		}
	}
	each(LinkFault{Drop: 0.2, Dup: 0.2})
	if !net.hasFaults {
		t.Fatal("faulting every link left the fault path off")
	}
	each(LinkFault{})
	if net.hasFaults || len(net.faultMap) != 0 {
		t.Fatalf("clearing every link left the fault path on (%d overrides)", len(net.faultMap))
	}
	net.SetLinkFaultAll(LinkFault{Drop: 0.2})
	net.SetLinkFault(0, 1, LinkFault{})
	if !net.hasFaults || net.fault(net.link(0, 1)) != (LinkFault{}) || net.fault(net.link(1, 0)).Drop != 0.2 {
		t.Fatal("a zero override under a global fault must clear only its own link")
	}
	net.SetLinkFaultAll(LinkFault{})
	if net.hasFaults || len(net.faultMap) != 0 {
		t.Fatal("SetLinkFaultAll(zero) left the fault path on")
	}
}
