package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback addresses by binding and
// releasing ephemeral listeners. The tiny window before the cluster
// rebinds them is an accepted test-only race.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// newTCPCluster builds and starts n interconnected TCPNetworks; mutate
// opts per node via tweak before Start.
func newTCPCluster(t *testing.T, n int, tweak func(id int, o *TCPOptions, net *TCPNetwork)) []*TCPNetwork {
	t.Helper()
	addrs := freeAddrs(t, n)
	nets := make([]*TCPNetwork, n)
	for i := range nets {
		o := TCPOptions{ID: i, Peers: addrs, Listen: addrs[i], RetryMin: 5 * time.Millisecond}
		var err error
		if tweak != nil {
			tweak(i, &o, nil)
		}
		nets[i], err = NewTCP(o)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, tn := range nets {
		if tweak != nil {
			tweak(i, nil, tn)
		}
		tn.Start()
	}
	t.Cleanup(func() {
		for _, tn := range nets {
			tn.Close()
		}
	})
	return nets
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMailboxBoundedPolicies(t *testing.T) {
	m := newMailbox(2)
	e := envelope{payload: []byte("x")}
	if got := m.push(e); got != pushQueued {
		t.Fatalf("push 1 = %d", got)
	}
	if got := m.push(e); got != pushQueued {
		t.Fatalf("push 2 = %d", got)
	}
	// A push on a full mailbox parks until the consumer swaps the queue
	// out.
	done := make(chan int, 1)
	go func() { done <- m.push(e) }()
	select {
	case got := <-done:
		t.Fatalf("blocking push on full returned early: %d", got)
	case <-time.After(20 * time.Millisecond):
	}
	batch, ok := m.swapWait(nil)
	if !ok || len(batch) != 2 {
		t.Fatalf("swapWait = %d envelopes, ok=%v", len(batch), ok)
	}
	m.idle()
	if got := <-done; got != pushQueued {
		t.Fatalf("unblocked push = %d", got)
	}
	// Discard mode clears the queue and rejects pushes as down-drops.
	m.setDiscard(true)
	if got := m.push(e); got != pushDroppedDown {
		t.Fatalf("push in discard mode = %d", got)
	}
	n, _, droppedDown, _ := m.depth()
	if n != 0 || droppedDown != 2 {
		t.Fatalf("depth=%d droppedDown=%d; want 0,2", n, droppedDown)
	}
	m.close()
	if got := m.push(e); got != pushDroppedDown {
		t.Fatalf("push after close = %d", got)
	}
	if _, ok := m.swapWait(nil); ok {
		t.Fatal("swapWait after close+drain must report closed")
	}
}

// TestMailboxBoundCountsUpdates: the bound counts the updates the queued
// envelopes carry, not the envelopes, so producers park after the same
// number of updates whether they push runs or single updates. A run
// that arrives below the bound is queued whole, overshooting by at most
// its own weight.
func TestMailboxBoundCountsUpdates(t *testing.T) {
	for _, count := range []int{1, 3} {
		m := newMailbox(8)
		pushed := make(chan int, 16)
		go func() {
			for {
				if m.push(envelope{payload: []byte("x"), count: count}) != pushQueued {
					close(pushed)
					return
				}
				pushed <- count
			}
		}()
		updates := 0
	fill:
		for {
			select {
			case c := <-pushed:
				updates += c
			case <-time.After(50 * time.Millisecond):
				break fill
			}
		}
		if updates < 8 || updates >= 8+count {
			t.Fatalf("runs of %d: the producer parked after %d updates, want [8, %d)", count, updates, 8+count)
		}
		if _, _, _, _ = m.depth(); m.updates != updates {
			t.Fatalf("runs of %d: %d updates queued, producer pushed %d", count, m.updates, updates)
		}
		m.close()
		for range pushed {
		}
	}
}

// TestTCPStalledPeerBlocksAfterQueueLenUpdates: a peer that accepts the
// link and then stops reading holds the broadcaster back once QueueLen
// updates are queued for it — counted in updates, so runs of five park
// it after the same number of updates as single ones would — and lets
// it go when the link dies.
func TestTCPStalledPeerBlocksAfterQueueLenUpdates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalled := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			stalled <- c // never read
		}
	}()
	addrs := []string{freeAddrs(t, 1)[0], ln.Addr().String()}
	const queueLen, count = 20, 5
	tn, err := NewTCP(TCPOptions{ID: 0, Peers: addrs, Listen: addrs[0], QueueLen: queueLen})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	defer tn.Close()
	var peer net.Conn
	defer func() { // before tn.Close, which waits for the parked sender
		ln.Close()
		if peer != nil {
			peer.Close()
		}
	}()
	tn.AttachRouter(0, (&tcpSink{}).route)
	tn.Start()
	waitUntil(t, 5*time.Second, "link up", func() bool { return tn.PeerStats()[0].Connected })
	peer = <-stalled
	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := make([]byte, 16<<10) // kernel buffers fill after a few hundred
		for i := 0; i < 1<<14; i++ {
			tn.BroadcastStep(0, 0, 0, count, payload)
			sent.Add(1)
		}
	}()
	// Parked: nothing more is sent for a while.
	for last := int64(-1); ; {
		time.Sleep(100 * time.Millisecond)
		n := sent.Load()
		if n == last {
			break
		}
		select {
		case <-done:
			t.Fatalf("the broadcaster never parked (%d runs sent)", n)
		default:
		}
		last = n
	}
	mb := tn.peers[1].mb
	mb.mu.Lock()
	queued := mb.updates
	mb.mu.Unlock()
	if queued < queueLen || queued >= queueLen+count {
		t.Fatalf("parked with %d updates queued, want [%d, %d)", queued, queueLen, queueLen+count)
	}
	ln.Close() // no redial finds it again
	peer.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the broadcaster stayed parked after the stalled link died")
	}
}

// tcpSink attaches a recording router to a node.
type tcpSink struct {
	mu   sync.Mutex
	msgs []string
}

func (s *tcpSink) route(from, shard, epoch int, payload []byte) {
	s.mu.Lock()
	s.msgs = append(s.msgs, fmt.Sprintf("%d/%d/%d:%s", from, shard, epoch, payload))
	s.mu.Unlock()
}

func (s *tcpSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *tcpSink) has(msg string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.msgs {
		if m == msg {
			return true
		}
	}
	return false
}

func TestTCPBroadcastFanout(t *testing.T) {
	const n = 3
	sinks := make([]*tcpSink, n)
	nets := newTCPCluster(t, n, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if tn != nil {
			sinks[id] = &tcpSink{}
			tn.AttachRouter(id, sinks[id].route)
		}
	})
	// Self-delivery is inline, like the in-process transports — it
	// needs no link at all.
	nets[0].BroadcastShardEpoch(0, 2, 4, []byte("hello"))
	if !sinks[0].has("0/2/4:hello") {
		t.Fatalf("self delivery missing: %v", sinks[0].msgs)
	}
	// Remote fan-out requires the links: broadcasts before a link is up
	// are deliberately discarded (repaired by the digest exchange in
	// the full stack), so wait for the mesh first.
	waitUntil(t, 5*time.Second, "mesh up", func() bool {
		for _, tn := range nets {
			for _, ps := range tn.PeerStats() {
				if !ps.Connected {
					return false
				}
			}
		}
		return true
	})
	nets[0].BroadcastShardEpoch(0, 2, 4, []byte("tagged"))
	for i, tn := range nets {
		tn.Broadcast(i, []byte(fmt.Sprintf("m%d", i)))
	}
	waitUntil(t, 5*time.Second, "full fan-out", func() bool {
		for i := range sinks {
			for j := range nets {
				if !sinks[i].has(fmt.Sprintf("%d/0/0:m%d", j, j)) {
					return false
				}
			}
			// The shard/epoch tags must survive the wire.
			if !sinks[i].has("0/2/4:tagged") {
				return false
			}
		}
		return true
	})
	s := nets[0].Stats()
	if s.Broadcasts != 3 || s.Delivered < 3 {
		t.Fatalf("node 0 stats: %+v", s)
	}
}

func TestTCPDownPeerDiscardsInsteadOfBlocking(t *testing.T) {
	// Node 0's only peer address is reserved but unbound: the link never
	// comes up, and broadcasts must return immediately as counted link
	// drops (wait-freedom against a dead peer), not block or accumulate.
	addrs := freeAddrs(t, 2)
	tn, err := NewTCP(TCPOptions{ID: 0, Peers: addrs, Listen: addrs[0], RetryMin: time.Millisecond, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	tn.AttachRouter(0, (&tcpSink{}).route)
	tn.Start()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			tn.Broadcast(0, []byte("x"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcasts to a down peer blocked")
	}
	if s := tn.Stats(); s.DroppedLink == 0 {
		t.Fatalf("expected down-peer drops, stats %+v", s)
	}
}

// fakeSync is a scripted SyncProvider recording the exchange.
type fakeSync struct {
	name    string
	mu      sync.Mutex
	applied []string
}

func (f *fakeSync) DigestPayload() ([]byte, error) { return []byte("digest-" + f.name), nil }
func (f *fakeSync) SyncReply(d []byte) ([]byte, error) {
	return []byte(f.name + "-reply-to-" + string(d)), nil
}
func (f *fakeSync) ApplySync(p []byte) error {
	f.mu.Lock()
	f.applied = append(f.applied, string(p))
	f.mu.Unlock()
	return nil
}
func (f *fakeSync) appliedFrom(peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.applied {
		if strings.Contains(a, peer+"-reply-to-digest-"+f.name) {
			return true
		}
	}
	return false
}

func TestTCPSyncOnConnectAndReconnect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	mk := func(id int, name string) (*TCPNetwork, *fakeSync) {
		tn, err := NewTCP(TCPOptions{ID: id, Peers: addrs, Listen: addrs[id], RetryMin: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fs := &fakeSync{name: name}
		tn.AttachRouter(id, (&tcpSink{}).route)
		tn.SetSyncProvider(fs)
		tn.Start()
		return tn, fs
	}
	a, fsA := mk(0, "a")
	defer a.Close()
	b, fsB := mk(1, "b")
	// On connect each side sends its digest and applies the other's
	// reply: a's applied log gains b's reply to a's digest, and vice
	// versa — the wire equivalent of Cluster.Heal's symmetric pulls.
	waitUntil(t, 5*time.Second, "initial digest exchange", func() bool {
		return fsA.appliedFrom("b") && fsB.appliedFrom("a")
	})

	// Kill b entirely and replace it at the same address: a must redial
	// and rerun the exchange with the replacement.
	b.Close()
	b2, fsB2 := mk(1, "b2")
	defer b2.Close()
	waitUntil(t, 10*time.Second, "reconnect digest exchange", func() bool {
		return fsB2.appliedFrom("a") && a.Stats().Reconnects > 0
	})
	_, syncsApplied := a.SyncExchanges()
	if syncsApplied == 0 {
		t.Fatal("a applied no sync replies")
	}
}

func TestTCPRejectsGarbageWithoutDying(t *testing.T) {
	sinks := make([]*tcpSink, 2)
	nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if tn != nil {
			sinks[id] = &tcpSink{}
			tn.AttachRouter(id, sinks[id].route)
		}
	})
	conn, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\xff\xff\xff\xff\xff this is not a frame"))
	conn.Close()
	waitUntil(t, 5*time.Second, "bad frame count", func() bool {
		return nets[0].BadFrames() > 0
	})
	// A valid hello followed by garbage is dropped at the frame level.
	conn2, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write(AppendFrame(nil, Frame{Kind: KindHello, From: 1, Payload: helloPayload(RolePeer, 2, "")}))
	conn2.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	conn2.Close()
	waitUntil(t, 5*time.Second, "second bad frame", func() bool {
		return nets[0].BadFrames() > 1
	})
	// The node keeps serving its real peers.
	nets[1].Broadcast(1, []byte("still-alive"))
	waitUntil(t, 5*time.Second, "post-garbage delivery", func() bool {
		return sinks[0].has("1/0/0:still-alive")
	})
}

// TestHandleFrameRecoversBadPayloadOnly: a handler that rejects a data
// payload with BadPayload costs its sender the link — handleFrame hands
// the error to the receive loop — while any other panic out of a handler
// (an invariant violation in the replica) is not swallowed.
func TestHandleFrameRecoversBadPayloadOnly(t *testing.T) {
	tn, err := NewTCP(TCPOptions{ID: 0, Peers: []string{"", "127.0.0.1:1"}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	tn.AttachRouter(0, func(from, shard, epoch int, payload []byte) {
		switch string(payload) {
		case "corrupt":
			panic(BadPayload{Err: errors.New("does not decode")})
		case "below-horizon":
			panic("core: update arrived below compaction horizon")
		}
	})
	data := func(p string) Frame { return Frame{Kind: KindData, From: 1, Payload: []byte(p)} }
	if err := tn.handleFrame(1, data("fine")); err != nil {
		t.Fatalf("a payload the handler took returned %v", err)
	}
	var bad BadPayload
	if err := tn.handleFrame(1, data("corrupt")); !errors.As(err, &bad) {
		t.Fatalf("an undecodable payload returned %v, want the handler's BadPayload", err)
	}
	if got := tn.Stats().Delivered; got != 1 {
		t.Fatalf("%d payloads counted delivered, want the one the handler took", got)
	}
	defer func() {
		if v := recover(); v != "core: update arrived below compaction horizon" {
			t.Fatalf("an invariant panic came out as %v", v)
		}
	}()
	tn.handleFrame(1, data("below-horizon"))
}

func TestTCPWrongClusterSizeRejected(t *testing.T) {
	nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if tn != nil {
			tn.AttachRouter(id, (&tcpSink{}).route)
		}
	})
	conn, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A peer hello claiming a 5-process cluster must be refused.
	conn.Write(AppendFrame(nil, Frame{Kind: KindHello, From: 1, Payload: helloPayload(RolePeer, 5, "")}))
	waitUntil(t, 5*time.Second, "cross-cluster hello rejected", func() bool {
		return nets[0].BadFrames() > 0
	})
}

// TestTCPOldDataFormatPeerRefused: a peer whose hello carries an older
// data format — none at all, from a daemon that sends one bare message
// per frame, or version 2, whose sync payloads are framed per shard — is
// refused and logged at the hello, before any of its frames reaches the
// router, so its link never churns through payloads it would misparse.
func TestTCPOldDataFormatPeerRefused(t *testing.T) {
	current := helloPayload(RolePeer, 2, "")
	for _, tc := range []struct {
		name    string
		hello   []byte
		version int
	}{
		{"no version", current[:len(current)-1], 1},
		{"version 2", append(current[:len(current)-1:len(current)-1], 2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logMu sync.Mutex
			var logged []string
			sink := &tcpSink{}
			nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
				if o != nil && id == 0 {
					o.Logf = func(format string, args ...any) {
						logMu.Lock()
						logged = append(logged, fmt.Sprintf(format, args...))
						logMu.Unlock()
					}
				}
				if tn != nil {
					tn.AttachRouter(id, sink.route)
				}
			})
			conn, err := net.Dial("tcp", nets[0].Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.Write(AppendFrame(nil, Frame{Kind: KindHello, From: 1, Payload: tc.hello}))
			conn.Write(AppendFrame(nil, Frame{Kind: KindData, From: 1, Payload: []byte("bare message")}))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// The daemon hangs up: an EOF, or a reset when it closed with the
			// data frame still unread in its socket buffer.
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("the daemon kept an old-format peer link (read: %v)", err)
			}
			if got := nets[0].BadFrames(); got != 1 {
				t.Fatalf("bad frames = %d, want 1 (the hello)", got)
			}
			if sink.has("1/0/0:bare message") {
				t.Fatal("a frame behind a refused hello reached the router")
			}
			logMu.Lock()
			defer logMu.Unlock()
			want := fmt.Sprintf("speaks data format %d, this daemon %d", tc.version, PeerVersion)
			if len(logged) == 0 || !strings.Contains(strings.Join(logged, "\n"), want) {
				t.Fatalf("refusal not logged: %q", logged)
			}
		})
	}
}

func TestTCPObjectMismatchRejected(t *testing.T) {
	nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if o != nil {
			o.ObjectName = "counter"
		}
		if tn != nil {
			tn.AttachRouter(id, (&tcpSink{}).route)
		}
	})
	// A peer speaking a different object is refused at handshake.
	conn, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(AppendFrame(nil, Frame{Kind: KindHello, From: 1, Payload: helloPayload(RolePeer, 2, "set")}))
	waitUntil(t, 5*time.Second, "mismatched peer hello rejected", func() bool {
		return nets[0].BadFrames() > 0
	})
	// A client speaking a different object gets a KindError reply.
	cc, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.Write(ClientHelloFor("set"))
	f, err := ReadFrame(bufio.NewReader(cc), MaxFrame)
	if err != nil || f.Kind != KindError {
		t.Fatalf("mismatched client hello: frame %+v err %v", f, err)
	}
	if !strings.Contains(string(f.Payload), "object mismatch") {
		t.Fatalf("error payload %q lacks object mismatch", f.Payload)
	}
	// A name-less (pre-registry) hello is still accepted as a peer link.
	anon, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	anon.Write(AppendFrame(nil, Frame{Kind: KindHello, From: 1, Payload: helloPayload(RolePeer, 2, "")}))
	time.Sleep(50 * time.Millisecond)
	if got := nets[0].BadFrames(); got != 2 {
		t.Fatalf("bad frames after anonymous hello = %d, want 2 (peer+client mismatches only)", got)
	}
}

func TestTCPClientHandler(t *testing.T) {
	var served atomic.Uint64
	nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if tn != nil {
			tn.AttachRouter(id, (&tcpSink{}).route)
			tn.SetClientHandler(func(conn net.Conn, br *bufio.Reader) {
				f, err := ReadFrame(br, MaxFrame)
				if err != nil {
					return
				}
				served.Add(1)
				conn.Write(AppendFrame(nil, Frame{Kind: KindResult, From: 0, Payload: f.Payload}))
			})
		}
	})
	conn, err := net.Dial("tcp", nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(ClientHello())
	conn.Write(AppendFrame(nil, Frame{Kind: KindQuery, From: -1, Payload: []byte("echo")}))
	f, err := ReadFrame(bufio.NewReader(conn), MaxFrame)
	if err != nil || string(f.Payload) != "echo" || f.Kind != KindResult {
		t.Fatalf("client round trip: frame %+v err %v", f, err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
}

func TestTCPFlushDrainsQueues(t *testing.T) {
	sinks := make([]*tcpSink, 2)
	nets := newTCPCluster(t, 2, func(id int, o *TCPOptions, tn *TCPNetwork) {
		if tn != nil {
			sinks[id] = &tcpSink{}
			tn.AttachRouter(id, sinks[id].route)
		}
	})
	waitUntil(t, 5*time.Second, "link up", func() bool {
		return nets[0].PeerStats()[0].Connected
	})
	for i := 0; i < 500; i++ {
		nets[0].Broadcast(0, []byte(fmt.Sprintf("m%d", i)))
	}
	if err := nets[0].Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Flushed means written to the socket; on a live loopback receiver
	// the frames then land promptly.
	waitUntil(t, 5*time.Second, "all deliveries", func() bool {
		return sinks[1].count() >= 500
	})
	ps := nets[0].PeerStats()[0]
	if ps.QueueDepth != 0 || ps.SentFrames < 500 {
		t.Fatalf("peer stats after flush: %+v", ps)
	}
}

func TestTCPAttachWrongIDPanics(t *testing.T) {
	addrs := freeAddrs(t, 2)
	tn, err := NewTCP(TCPOptions{ID: 0, Peers: addrs, Listen: addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Attach for a remote id must panic")
		}
	}()
	tn.Attach(1, func(int, []byte) {})
}

// helloTapConn is a send link whose far end acts the moment the first
// write (the hello) lands; it records everything written. Reads block
// until Close, like a peer that never writes on a send link.
type helloTapConn struct {
	net.Conn // nil: the tests use only the methods below
	onHello  func()
	mu       sync.Mutex
	written  []byte
	writes   int
	closed   chan struct{}
	once     sync.Once
}

func (c *helloTapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.written = append(c.written, b...)
	c.writes++
	first := c.writes == 1
	c.mu.Unlock()
	if first {
		c.onHello()
	}
	return len(b), nil
}

func (c *helloTapConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *helloTapConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *helloTapConn) frames(t *testing.T) []Frame {
	t.Helper()
	c.mu.Lock()
	br := bufio.NewReader(strings.NewReader(string(c.written)))
	c.mu.Unlock()
	var out []Frame
	for {
		f, err := ReadFrame(br, MaxFrame)
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// TestTCPSendQueueOpenBeforeHello pins the sync-on-connect ordering: a
// peer answers our hello with its digest, and our reply to that digest
// is pushed onto this send queue by the receive goroutine — possibly
// before the sender runs again after writing the hello. The queue must
// already accept it then; a reply discarded there is lost until the
// next reconnect.
func TestTCPSendQueueOpenBeforeHello(t *testing.T) {
	tn, err := NewTCP(TCPOptions{ID: 0, Peers: []string{"", "127.0.0.1:1"}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	p := tn.peers[1]
	pushed := -1
	conn := &helloTapConn{closed: make(chan struct{})}
	conn.onHello = func() {
		pushed = p.mb.push(envelope{kind: KindSyncReply, from: 0, to: 1, payload: []byte("repair")})
	}
	done := make(chan error, 1)
	go func() { done <- p.serve(conn) }()
	waitUntil(t, 5*time.Second, "the sync reply to follow the hello", func() bool {
		return len(conn.frames(t)) >= 2
	})
	conn.Close()
	<-done
	if pushed != pushQueued {
		t.Fatalf("a sync reply pushed while the hello was in flight was dropped (push outcome %d)", pushed)
	}
	fs := conn.frames(t)
	if fs[0].Kind != KindHello || fs[1].Kind != KindSyncReply || string(fs[1].Payload) != "repair" {
		t.Fatalf("send link carried kinds %d, %d; want hello then the sync reply", fs[0].Kind, fs[1].Kind)
	}
	if _, _, down, _ := p.mb.depth(); down != 0 {
		t.Fatalf("%d envelopes discarded", down)
	}
}
