package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNetwork is the real-wire transport: one instance per OS process,
// hosting exactly one process id of the cluster, connected to its
// peers over TCP. It implements the same Network / ResizableNetwork
// surface as the in-process transports, so a replica
// (sharded or not) runs on it unchanged — the difference is that
// Broadcast frames the payload (wire.go) and hands it to per-peer
// outbound queues instead of in-memory mailboxes.
//
// Topology: links are unidirectional. This node dials every peer and
// uses the dialed connection only for sending; inbound connections
// (accepted on Listen) are only read. Each direction reconnects
// independently with exponential backoff.
//
// Backpressure: each peer's outbound queue is bounded (QueueLen, in
// updates).
// When a connected peer falls behind, Broadcast blocks until the
// sender drains, so memory stays bounded and nothing is lost: the
// digest exchange runs only on (re)connect, so a live link has no
// repair path for a dropped envelope. While a
// peer link is down the queue discards instead of accumulating: the
// losses are counted like link losses and repaired by the digest
// exchange that runs automatically on every (re)connect, exactly as
// Cluster.Heal repairs a partition in-process.
//
// Handlers are invoked from per-connection reader goroutines —
// concurrently across peers, serially per peer, like LiveNetwork's one
// dispatcher per process. Replica.handle and the sharded router are
// safe for concurrent delivery.
type TCPNetwork struct {
	opts TCPOptions
	n    int
	ln   net.Listener

	mu       sync.Mutex
	handler  Handler // local process's plain (shard 0) handler
	router   EpochHandler
	provider SyncProvider
	clientFn ClientConnHandler
	conns    map[net.Conn]struct{} // open inbound conns, closed on Close

	peers []*tcpPeer // by process id; nil at the local id

	started atomic.Bool
	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	broadcasts atomic.Uint64
	sends      atomic.Uint64
	delivered  atomic.Uint64
	bytes      atomic.Uint64
	reconnects atomic.Uint64
	badFrames  atomic.Uint64
	// digestsSent / syncsApplied instrument the on-connect anti-entropy
	// exchange for tests and the stats dump.
	digestsSent  atomic.Uint64
	syncsApplied atomic.Uint64
}

// TCPOptions configures a TCPNetwork.
type TCPOptions struct {
	// ID is the local process id; Peers[ID] is ignored (it may hold
	// this node's own advertised address).
	ID int
	// Peers is the full cluster address list, one entry per process id.
	// The cluster size is len(Peers).
	Peers []string
	// Listen is the local listen address (e.g. ":7001" or
	// "127.0.0.1:0").
	Listen string
	// BatchBytes is the outbound write-coalescing threshold: a sender
	// drains its whole queue per wakeup and flushes to the socket every
	// BatchBytes of framed data (default 64 KiB). 1 disables batching —
	// one write per frame.
	BatchBytes int
	// QueueLen bounds each peer's outbound queue in updates (default
	// 4096): a data envelope weighs the number of updates its payload
	// carries (BroadcastStep), a control envelope one.
	QueueLen int
	// MaxFrame bounds accepted frame bodies (default MaxFrame).
	MaxFrame int
	// ObjectName, when set, is carried in every hello this node sends
	// and checked against every hello it receives: a peer or client
	// speaking a different (non-empty) object name is refused at
	// handshake, before any data frame is interpreted. Empty disables
	// both the claim and the check.
	ObjectName string
	// DialTimeout, RetryMin and RetryMax shape the reconnect loop
	// (defaults 2s, 50ms, 2s).
	DialTimeout time.Duration
	RetryMin    time.Duration
	RetryMax    time.Duration
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// SyncProvider is the transport's hook into the replica's anti-entropy
// machinery (core.ShardedReplica implements it): the payloads are
// opaque to the transport, which only moves them. On every (re)connect
// of a peer link — in
// either direction — the transport queues this node's digest to that
// peer; a received digest is answered with a sync reply, and a
// received reply is applied. Both sides do this, so any link cycle
// repairs both directions' losses, like Cluster.Heal's pull pairs.
type SyncProvider interface {
	// DigestPayload encodes this node's current digest.
	DigestPayload() ([]byte, error)
	// SyncReply encodes what a peer holding the given digest is
	// missing; nil means nothing.
	SyncReply(digest []byte) ([]byte, error)
	// ApplySync lands a received reply.
	ApplySync(payload []byte) error
}

// ClientConnHandler serves one accepted client connection (hello
// already consumed). The transport closes conn when the handler
// returns, and closes it underneath the handler on Close to unblock
// its reads.
type ClientConnHandler func(conn net.Conn, br *bufio.Reader)

type tcpPeer struct {
	net        *TCPNetwork
	id         int
	addr       string
	mb         *mailbox
	connected  atomic.Bool
	connects   atomic.Uint64
	sentFrames atomic.Uint64
	sentBytes  atomic.Uint64
}

// NewTCP validates the options and binds the listener (so ":0" works:
// Addr reports the bound address before Start). Attach the replica and
// sync provider, then Start.
func NewTCP(opts TCPOptions) (*TCPNetwork, error) {
	n := len(opts.Peers)
	if n <= 0 {
		return nil, fmt.Errorf("transport: TCPOptions.Peers must name every process")
	}
	if opts.ID < 0 || opts.ID >= n {
		return nil, fmt.Errorf("transport: TCPOptions.ID %d out of range [0,%d)", opts.ID, n)
	}
	for i, a := range opts.Peers {
		if i != opts.ID && a == "" {
			return nil, fmt.Errorf("transport: TCPOptions.Peers[%d] is empty", i)
		}
	}
	if opts.BatchBytes <= 0 {
		opts.BatchBytes = 64 << 10
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 4096
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", opts.Listen, err)
	}
	t := &TCPNetwork{
		opts:    opts,
		n:       n,
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		closeCh: make(chan struct{}),
		peers:   make([]*tcpPeer, n),
	}
	for i, a := range opts.Peers {
		if i == opts.ID {
			continue
		}
		p := &tcpPeer{net: t, id: i, addr: a, mb: newMailbox(opts.QueueLen)}
		// Born discarding: nothing accumulates (or blocks) before the
		// link is up; the on-connect digest exchange covers the gap.
		p.mb.setDiscard(true)
		t.peers[i] = p
	}
	return t, nil
}

// Start launches the accept loop and one dialer per peer. Call it
// after attaching the replica (Attach/AttachRouter) and the sync
// provider, so early inbound traffic finds its handler.
func (t *TCPNetwork) Start() {
	if !t.started.CompareAndSwap(false, true) {
		return
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(1)
		go p.run()
	}
}

// Addr returns the bound listen address (resolving ":0").
func (t *TCPNetwork) Addr() string { return t.ln.Addr().String() }

// N returns the cluster size.
func (t *TCPNetwork) N() int { return t.n }

// SetSyncProvider installs the anti-entropy hook; set it before Start.
func (t *TCPNetwork) SetSyncProvider(p SyncProvider) {
	t.mu.Lock()
	t.provider = p
	t.mu.Unlock()
}

// SetClientHandler installs the serving callback for accepted client
// connections; without one, client dials are closed immediately.
func (t *TCPNetwork) SetClientHandler(fn ClientConnHandler) {
	t.mu.Lock()
	t.clientFn = fn
	t.mu.Unlock()
}

func (t *TCPNetwork) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

func (t *TCPNetwork) maxFrame() int {
	if t.opts.MaxFrame > 0 {
		return t.opts.MaxFrame
	}
	return MaxFrame
}

// Attach implements Network. A TCPNetwork hosts one process: attaching
// any other id is a wiring bug and panics.
func (t *TCPNetwork) Attach(id int, h Handler) {
	if id != t.opts.ID {
		panic(fmt.Sprintf("transport: TCPNetwork hosts process %d only; Attach(%d) is a wiring bug", t.opts.ID, id))
	}
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// AttachRouter implements ResizableNetwork (local process only).
func (t *TCPNetwork) AttachRouter(id int, h EpochHandler) {
	if id != t.opts.ID {
		panic(fmt.Sprintf("transport: TCPNetwork hosts process %d only; AttachRouter(%d) is a wiring bug", t.opts.ID, id))
	}
	t.mu.Lock()
	t.router = h
	t.mu.Unlock()
}

// Broadcast implements Network.
func (t *TCPNetwork) Broadcast(from int, payload []byte) {
	t.BroadcastShardEpoch(from, 0, 0, payload)
}

// BroadcastShardEpoch implements ResizableNetwork: a payload carrying
// one update (BroadcastStep with count 1).
func (t *TCPNetwork) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	t.BroadcastStep(from, shard, epoch, 1, payload)
}

// BroadcastStep is BroadcastShardEpoch for a payload that carries count
// updates: self-delivery is inline (the paper's instantaneous
// self-receipt), remote copies are framed and queued per peer under the
// configured backpressure policy, each weighing count updates against
// the peer's QueueLen. The payload stays opaque; the replica passes the
// count with it.
func (t *TCPNetwork) BroadcastStep(from, shard, epoch, count int, payload []byte) {
	if from != t.opts.ID {
		panic(fmt.Sprintf("transport: TCPNetwork hosts process %d only; Broadcast from %d is a wiring bug", t.opts.ID, from))
	}
	if t.closed.Load() {
		return
	}
	t.broadcasts.Add(1)
	t.sends.Add(1)
	t.delivered.Add(1)
	t.bytes.Add(uint64(len(payload)))
	t.deliver(from, shard, epoch, payload)
	for id, p := range t.peers {
		if p == nil {
			continue
		}
		// The payload slice is shared across queues, never copied per
		// recipient; the sender goroutine copies it into its staging
		// buffer when framing.
		e := envelope{kind: KindData, from: from, to: id, shard: shard, epoch: epoch, payload: payload, count: count}
		if p.mb.push(e) == pushQueued {
			t.sends.Add(1)
			t.bytes.Add(uint64(len(payload)))
		}
	}
}

// deliver dispatches an inbound (or self) data payload to the local
// router, or on shard 0 to the plain handler.
func (t *TCPNetwork) deliver(from, shard, epoch int, payload []byte) {
	t.mu.Lock()
	rt, h := t.router, t.handler
	t.mu.Unlock()
	if rt != nil {
		rt(from, shard, epoch, payload)
	} else if h != nil && shard == 0 {
		h(from, payload)
	}
}

// queueDigest enqueues this node's digest to peer p — the
// sync-on-connect exchange, run on both ends of every link
// establishment.
func (t *TCPNetwork) queueDigest(p *tcpPeer) {
	t.mu.Lock()
	prov := t.provider
	t.mu.Unlock()
	if prov == nil {
		return
	}
	d, err := prov.DigestPayload()
	if err != nil {
		t.logf("digest for peer %d: %v", p.id, err)
		return
	}
	if p.mb.push(envelope{kind: KindDigest, from: t.opts.ID, to: p.id, payload: d}) == pushQueued {
		t.digestsSent.Add(1)
	}
}

// run is a peer's dialer loop: dial, hello, hand the connection to the
// sender, reconnect with exponential backoff on any failure.
func (p *tcpPeer) run() {
	defer p.net.wg.Done()
	backoff := p.net.opts.RetryMin
	for !p.net.closed.Load() {
		conn, err := net.DialTimeout("tcp", p.addr, p.net.opts.DialTimeout)
		if err != nil {
			if !p.pause(backoff) {
				return
			}
			backoff *= 2
			if backoff > p.net.opts.RetryMax {
				backoff = p.net.opts.RetryMax
			}
			continue
		}
		backoff = p.net.opts.RetryMin
		err = p.serve(conn)
		conn.Close()
		if p.net.closed.Load() {
			return
		}
		if err != nil {
			p.net.logf("peer %d (%s): send link lost: %v", p.id, p.addr, err)
		}
		if !p.pause(backoff) {
			return
		}
	}
}

// pause sleeps for d, waking early on Close; it reports whether the
// loop should continue.
func (p *tcpPeer) pause(d time.Duration) bool {
	select {
	case <-p.net.closeCh:
		return false
	case <-time.After(d):
		return !p.net.closed.Load()
	}
}

// serve runs one established outbound connection: hello, then the
// batched sender loop until the link or the network dies.
func (p *tcpPeer) serve(conn net.Conn) error {
	hello := AppendFrame(nil, Frame{
		Kind: KindHello, From: p.net.opts.ID,
		Payload: helloPayload(RolePeer, p.net.n, p.net.opts.ObjectName),
	})
	// The queue must be open before the hello is on the wire: the peer
	// answers the hello with its digest on its own send link, and our
	// reply to that digest — everything the peer missed while this link
	// was down — is pushed here by the receive goroutine, possibly
	// before this goroutine runs again. A queue still discarding at
	// that moment loses the repair for good (nothing asks again until
	// the next reconnect). Only this goroutine drains the queue, so the
	// hello still goes out first.
	p.mb.setDiscard(false)
	defer p.mb.setDiscard(true)
	if _, err := conn.Write(hello); err != nil {
		return err
	}
	if p.connects.Add(1) > 1 {
		p.net.reconnects.Add(1)
	}
	p.connected.Store(true)
	defer p.connected.Store(false)
	// Sync-on-connect, outbound side: tell the peer what we hold so it
	// can send back what we lack.
	p.net.queueDigest(p)

	// The send link is unidirectional — the peer never writes on it —
	// so a read can only return when the link dies (FIN, RST, or our
	// own Close). The monitor turns that into liveness for an idle
	// sender: without it, a dead link would go unnoticed until the next
	// broadcast, and a restarted peer would wait arbitrarily long for
	// its reconnect digest exchange.
	dead := make(chan struct{})
	go func() {
		var buf [16]byte
		for {
			if _, err := conn.Read(buf[:]); err != nil {
				break
			}
		}
		close(dead)
		conn.Close()
		p.mb.kick()
	}()

	var batch []envelope
	out := make([]byte, 0, p.net.opts.BatchBytes+4096)
	for {
		var ok bool
		batch, ok = p.mb.swapWait(batch)
		if !ok {
			return nil // network closed
		}
		out = out[:0]
		var err error
		for i := range batch {
			e := &batch[i]
			out = AppendFrame(out, Frame{Kind: e.kind, From: e.from, Shard: e.shard, Epoch: e.epoch, Payload: e.payload})
			p.sentFrames.Add(1)
			// Size-bounded coalescing: many queued envelopes become one
			// write, but the staging buffer never grows past the batch
			// threshold by more than one frame.
			if len(out) >= p.net.opts.BatchBytes {
				if err = p.write(conn, out); err != nil {
					break
				}
				out = out[:0]
			}
		}
		if err == nil && len(out) > 0 {
			err = p.write(conn, out)
		}
		clearTail(batch, 0)
		p.mb.idle()
		if err != nil {
			// Envelopes framed but not written are lost with the
			// connection; the reconnect digest exchange repairs them.
			return err
		}
		select {
		case <-dead:
			return errors.New("transport: peer closed the link")
		default:
		}
	}
}

func (p *tcpPeer) write(conn net.Conn, buf []byte) error {
	nw, err := conn.Write(buf)
	p.sentBytes.Add(uint64(nw))
	return err
}

// acceptLoop accepts inbound connections (peer receive links and
// clients) until Close.
func (t *TCPNetwork) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			t.logf("accept: %v", err)
			continue
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// forget unregisters a finished inbound connection.
func (t *TCPNetwork) forget(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// serveConn reads one inbound connection: a hello classifies it as a
// peer receive link or a client, then frames are dispatched until the
// stream ends or turns malformed. A bad frame — one that does not parse,
// or a data payload the replica cannot decode — closes the connection (and
// is counted) without disturbing the rest of the daemon; the remote side
// redials if it was a real peer.
func (t *TCPNetwork) serveConn(conn net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	hello, err := ReadFrame(br, t.maxFrame())
	if err != nil || hello.Kind != KindHello {
		t.badFrames.Add(1)
		t.forget(conn)
		conn.Close()
		return
	}
	h, err := parseHello(hello.Payload)
	if err != nil {
		t.badFrames.Add(1)
		t.forget(conn)
		conn.Close()
		return
	}
	mismatch := t.opts.ObjectName != "" && h.name != "" && h.name != t.opts.ObjectName
	if h.role == RoleClient {
		// The conn stays registered so Close unblocks the handler's read.
		defer func() {
			t.forget(conn)
			conn.Close()
		}()
		if mismatch {
			// Tell the client what went wrong before hanging up — a
			// silent close would read as a network fault, not a
			// configuration error.
			t.badFrames.Add(1)
			msg := fmt.Sprintf("object mismatch: daemon serves %q, client speaks %q", t.opts.ObjectName, h.name)
			conn.Write(AppendFrame(nil, Frame{Kind: KindError, From: -1, Payload: []byte(msg)}))
			return
		}
		t.mu.Lock()
		fn := t.clientFn
		t.mu.Unlock()
		if fn != nil {
			fn(conn, br)
		}
		return
	}
	from := hello.From
	if mismatch {
		t.logf("rejecting peer hello: object mismatch: this daemon serves %q, peer %d speaks %q", t.opts.ObjectName, from, h.name)
		t.badFrames.Add(1)
		t.forget(conn)
		conn.Close()
		return
	}
	if h.version != PeerVersion {
		t.logf("rejecting peer hello: peer %d speaks data format %d, this daemon %d", from, h.version, PeerVersion)
		t.badFrames.Add(1)
		t.forget(conn)
		conn.Close()
		return
	}
	if h.size != t.n || from < 0 || from >= t.n || from == t.opts.ID {
		t.logf("rejecting peer hello: from=%d size=%d (cluster size %d)", from, h.size, t.n)
		t.badFrames.Add(1)
		t.forget(conn)
		conn.Close()
		return
	}
	// Sync-on-connect, inbound side: the peer just (re)established its
	// send link to us; queue our digest on our own send link so we
	// recover whatever we missed while it was down.
	if p := t.peers[from]; p != nil {
		t.queueDigest(p)
	}
	defer func() {
		t.forget(conn)
		conn.Close()
	}()
	for {
		f, err := ReadFrame(br, t.maxFrame())
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) {
				t.badFrames.Add(1)
				t.logf("peer %d: dropping receive link: %v", from, err)
			} else if err != io.EOF && !t.closed.Load() {
				t.logf("peer %d: receive link lost: %v", from, err)
			}
			return
		}
		if err := t.handleFrame(from, f); err != nil {
			t.badFrames.Add(1)
			t.logf("peer %d: dropping receive link: %v", from, err)
			return
		}
	}
}

// handleFrame dispatches one inbound peer frame. The error is a data
// payload the replica could not decode (BadPayload): nothing of it was
// landed, and the caller drops the link — the peer redials and the digest
// exchange on connect repairs whatever the frame stood for. Any other
// panic out of the handler is an invariant violation and keeps going.
func (t *TCPNetwork) handleFrame(from int, f Frame) (err error) {
	switch f.Kind {
	case KindData:
		if f.From < 0 || f.From >= t.n {
			t.badFrames.Add(1)
			return nil
		}
		defer func() {
			if v := recover(); v != nil {
				bad, ok := v.(BadPayload)
				if !ok {
					panic(v)
				}
				err = bad
			}
		}()
		t.deliver(f.From, f.Shard, f.Epoch, f.Payload)
		t.delivered.Add(1)
	case KindDigest:
		t.mu.Lock()
		prov := t.provider
		t.mu.Unlock()
		if prov == nil {
			return nil
		}
		reply, err := prov.SyncReply(f.Payload)
		if err != nil {
			t.logf("sync reply for peer %d: %v", from, err)
			return nil
		}
		if reply == nil {
			return nil
		}
		if p := t.peers[from]; p != nil {
			p.mb.push(envelope{kind: KindSyncReply, from: t.opts.ID, to: from, payload: reply})
		}
	case KindSyncReply:
		t.mu.Lock()
		prov := t.provider
		t.mu.Unlock()
		if prov == nil {
			return nil
		}
		if err := prov.ApplySync(f.Payload); err != nil {
			t.logf("applying sync from peer %d: %v", from, err)
			return nil
		}
		t.syncsApplied.Add(1)
	default:
		// Unknown peer frame kinds are skipped, not fatal: the framing
		// is self-delimiting, so newer peers can add kinds.
	}
	return nil
}

// Flush blocks until every peer's outbound queue has drained to the
// socket (or the timeout expires). Queues of down peers are empty by
// construction (discard mode). Written is not delivered — use the
// replica-level state checks for convergence.
func (t *TCPNetwork) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			if n, _, _, busy := p.mb.depth(); n > 0 || busy {
				idle = false
				break
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: flush timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// BadFrames reports how many malformed or protocol-violating frames
// (and connections) this node has rejected.
func (t *TCPNetwork) BadFrames() uint64 { return t.badFrames.Load() }

// SyncExchanges reports the sync-on-connect counters: digests queued
// to peers, and sync replies applied locally.
func (t *TCPNetwork) SyncExchanges() (digestsSent, syncsApplied uint64) {
	return t.digestsSent.Load(), t.syncsApplied.Load()
}

// PeerStats is the per-link observability surface: queue depth and
// connection churn per peer.
type PeerStats struct {
	Peer        int
	Addr        string
	Connected   bool
	QueueDepth  int
	QueueBytes  int
	Connects    uint64 // successful dials of the send link
	SentFrames  uint64
	SentBytes   uint64
	DroppedDown uint64 // discarded while the link was down
}

// PeerStats returns one entry per remote peer, ordered by id.
func (t *TCPNetwork) PeerStats() []PeerStats {
	out := make([]PeerStats, 0, t.n-1)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		depth, bytes, down, _ := p.mb.depth()
		out = append(out, PeerStats{
			Peer:        p.id,
			Addr:        p.addr,
			Connected:   p.connected.Load(),
			QueueDepth:  depth,
			QueueBytes:  bytes,
			Connects:    p.connects.Load(),
			SentFrames:  p.sentFrames.Load(),
			SentBytes:   p.sentBytes.Load(),
			DroppedDown: down,
		})
	}
	return out
}

// Stats returns a copy of the traffic counters. Down-peer discards are
// attributed to DroppedLink (they are link losses, repaired by
// anti-entropy like any other).
func (t *TCPNetwork) Stats() Stats {
	s := Stats{
		Broadcasts: t.broadcasts.Load(),
		Sends:      t.sends.Load(),
		Delivered:  t.delivered.Load(),
		Bytes:      t.bytes.Load(),
		Reconnects: t.reconnects.Load(),
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		_, _, down, _ := p.mb.depth()
		s.DroppedLink += down
	}
	return s
}

// Close shuts the transport down: the listener and every connection
// close, dialers and readers exit, queued envelopes are dropped.
func (t *TCPNetwork) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.closeCh)
	t.ln.Close()
	for _, p := range t.peers {
		if p != nil {
			p.mb.close()
		}
	}
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	if t.started.Load() {
		t.wg.Wait()
	}
	return nil
}

var _ ResizableNetwork = (*TCPNetwork)(nil)
