package updatec

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The client writes updates behind the caller and the daemon stamps what
// it has buffered in one step; these tests pin what that must not change.

// serveOne starts a one-daemon cluster of obj.
func serveOne[H any](t *testing.T, obj Object[H]) *WireNode[H] {
	t.Helper()
	node, err := ListenAndServe(obj, WireConfig{ID: 0, Peers: wireAddrs(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// TestWireLoneInsertSentWithoutHelp is TestSentWithoutHelp over the wire:
// one Insert through a client, and nothing after it — no query, no
// Flush, no Close — reaches a peer daemon.
func TestWireLoneInsertSentWithoutHelp(t *testing.T) {
	nodes := serveWireMesh(t, SetObject(), WireConfig{})
	c, err := Dial(SetObject(), nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Let the flusher park first: an update must wake it, not find it
	// still starting up.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Handle().Insert("x")
	peer := nodes[1].Handle()
	waitWire(t, 5*time.Second, "the lone insert at a peer", func() bool { return peer.Contains("x") })
}

// TestWireUpdateThenClose: updates issued right before Close are written
// by it — the daemon applies every one.
func TestWireUpdateThenClose(t *testing.T) {
	node := serveOne(t, SetObject())
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	set := c.Handle()
	var want []string
	for i := 0; i < 1000; i++ {
		v := strings.Repeat("v", 1+i%7) + string(rune('a'+i%26))
		set.Insert(v)
		want = append(want, v)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	want = slices.Compact(want)
	waitWire(t, 5*time.Second, "every update written by Close", func() bool {
		return node.rep.Stats().TotalOps == 1000 && slices.Equal(node.Handle().Elements(), want)
	})
}

// TestWireUnencodableUpdateKeepsEarlier: an update the codec cannot
// encode latches in Err and stops the client, but the updates issued
// before it are still written — by the flusher, or by Close.
func TestWireUnencodableUpdateKeepsEarlier(t *testing.T) {
	node := serveOne(t, SetObject())
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	set := c.Handle()
	for i := 0; i < n; i++ {
		set.Insert(strconv.Itoa(i))
	}
	clientPort[*Set]{c}.Update(spec.Append{V: "not a set update"})
	latched := c.Err()
	if latched == nil || !strings.Contains(latched.Error(), "encoding update") {
		t.Fatalf("Err = %v, want the encoding failure", latched)
	}
	if err := c.Close(); err != latched {
		t.Fatalf("Close = %v, want the latched %v", err, latched)
	}
	waitWire(t, 5*time.Second, "every update before the unencodable one", func() bool {
		return node.rep.Stats().TotalOps == n
	}, func() string { return fmt.Sprintf("landed %d of %d", node.rep.Stats().TotalOps, n) })
}

// TestWireUpdateRacingCloseKeepsEarlier: Close while another goroutine
// streams updates — some parked on a full pending buffer — still writes
// every update that returned before Close was called, and reports no
// error: being closed is not a connection failure.
func TestWireUpdateRacingCloseKeepsEarlier(t *testing.T) {
	node := serveOne(t, SetObject())
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	set := c.Handle()
	var returned atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			set.Insert(strconv.Itoa(i))
			returned.Store(int64(i + 1))
		}
	}()
	// Let the stream run far enough ahead to fill the pending buffer.
	waitWire(t, 5*time.Second, "a running stream", func() bool { return returned.Load() >= 50000 })
	before := returned.Load()
	if err := c.Close(); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	close(stop)
	<-done
	if c.Err() != nil {
		t.Fatalf("Err after Close = %v, want nil", c.Err())
	}
	waitWire(t, 10*time.Second, "every update issued before Close", func() bool {
		return int64(node.rep.Stats().TotalOps) >= before
	}, func() string {
		return fmt.Sprintf("landed %d, %d issued before Close", node.rep.Stats().TotalOps, before)
	})
	for i := int64(0); i < before; i += max(before/100, 1) {
		if !node.Handle().Contains(strconv.Itoa(int(i))) {
			t.Fatalf("update %d, issued before Close, is missing", i)
		}
	}
}

// TestWireWriteFailureLatches: once the daemon is gone, the flusher's
// failed write latches in Err — the caller of Update never sees it
// otherwise — and Close and later queries report it.
func TestWireWriteFailureLatches(t *testing.T) {
	node := serveOne(t, SetObject())
	c, err := Dial(SetObject(), node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	set := c.Handle()
	set.Insert("before")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	node.Close()
	waitWire(t, 5*time.Second, "a latched write error", func() bool {
		set.Insert("after")
		return c.Err() != nil
	})
	latched := c.Err()
	func() {
		defer func() {
			if r := recover(); r != latched {
				t.Fatalf("a query after the failure panicked with %v, want the latched %v", r, latched)
			}
		}()
		set.Contains("before")
	}()
	if err := c.Close(); err != latched {
		t.Fatalf("Close = %v, want the latched %v", err, latched)
	}
}

// TestWireBatchedMalformedUpdate: a client's frames arrive in one read —
// two updates, one that does not decode, one more, a ping — and the
// daemon lands the two ahead of the bad one in one write step and exactly
// once, answers it with one error frame, lands the last, answers the
// ping, and keeps serving the connection.
func TestWireBatchedMalformedUpdate(t *testing.T) {
	node := serveOne(t, SetObject())
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		node.serveClient(server, bufio.NewReaderSize(server, 64<<10))
	}()
	defer func() {
		client.Close()
		<-done
	}()
	frame := func(kind byte, payload []byte) []byte {
		return transport.AppendFrame(nil, transport.Frame{Kind: kind, From: -1, Payload: payload})
	}
	update := func(u spec.Update) []byte {
		b, err := SetObject().codec.EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		return frame(transport.KindUpdate, b)
	}
	var stream []byte
	for _, f := range [][]byte{
		update(spec.Ins{V: "a"}), update(spec.Ins{V: "b"}), frame(transport.KindUpdate, []byte{0xff}),
		update(spec.Ins{V: "c"}), frame(transport.KindPing, nil),
	} {
		stream = append(stream, f...)
	}
	go client.Write(stream)
	br := bufio.NewReader(client)
	for _, want := range []byte{transport.KindError, transport.KindPong} {
		f, err := transport.ReadFrame(br, transport.MaxFrame)
		if err != nil || f.Kind != want {
			t.Fatalf("reply %+v (%v), want kind %d", f, err, want)
		}
	}
	if st, bc := node.rep.Stats(), node.Stats().Broadcasts; st.TotalOps != 3 || bc != 2 {
		t.Fatalf("%d updates landed in %d write steps, want 3 in 2", st.TotalOps, bc)
	}
	qc := SetObject().queries
	in, err := qc.AppendQueryInput(nil, spec.Read{})
	if err != nil {
		t.Fatal(err)
	}
	go client.Write(frame(transport.KindQuery, in))
	f, err := transport.ReadFrame(br, transport.MaxFrame)
	if err != nil || f.Kind != transport.KindResult {
		t.Fatalf("query after the bad update: %+v (%v)", f, err)
	}
	out, err := qc.DecodeQueryOutput(spec.Read{}, f.Payload)
	if got := out.(spec.Elems); err != nil || !slices.Equal(got, spec.Elems{"a", "b", "c"}) {
		t.Fatalf("elements %v (%v), want [a b c]", got, err)
	}
}
