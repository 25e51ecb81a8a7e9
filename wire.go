package updatec

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Real-wire distribution. New builds a whole cluster in one process;
// ListenAndServe builds ONE replica of a cluster whose other replicas
// live in other processes (or machines), connected by the TCP
// transport: the same universal construction, the same wire bytes per
// update, with reliable broadcast provided by per-peer sockets plus
// the on-connect digest exchange (a link that drops or partitions is
// repaired by anti-entropy when it returns — the partitionable-systems
// companion result, on a network that can genuinely partition).
// Dial connects a thin client to any daemon and speaks the same framed
// protocol: updates as spec codec bytes, and queries as round trips of
// the object's QueryCodec bytes, an input out and its output back.
// "Converged yet?" is answered without touching the state: a daemon's
// StateKey is its update-set fingerprint, O(shards) however much the
// replica holds. Equal keys mean equal sets of update stamps; that
// is the same updates, and so the same state (Algorithm 1's state is a
// function of that set), only while no stamp names two updates — see
// WireNode.StateKey for the one way a daemon breaks that.

// WireConfig configures one ListenAndServe daemon replica.
type WireConfig struct {
	// ID is this replica's process id; Peers is the full cluster
	// address list indexed by id (Peers[ID] is this node's advertised
	// address and is not dialed). The cluster size is len(Peers).
	ID    int
	Peers []string
	// Listen is the local listen address; empty defaults to Peers[ID].
	Listen string
	// Shards runs the replica key-sharded (WithShards semantics; needs
	// a partitionable object). 0 means 1. It is this daemon's own choice:
	// its peers may run other counts.
	Shards int
	// GC enables stability-based log compaction, at one horizon for all
	// of the replica's shards: all traffic from a peer shares one
	// connection, FIFO, so a stamp from a peer proves that its earlier
	// ones arrived, whatever their shard and the peer's shard count.
	// Synced entries skip stability accounting, and redeliveries below an
	// adopted snapshot's horizon are dropped by the merged-base guard. An
	// update sent while its link is down is dropped and left to the
	// digest exchange on reconnect, and a peer that observes the sender's
	// newer stamps before that exchange lands can compact past it (see
	// ROADMAP item 17).
	GC bool
	// BatchBytes and QueueLen tune the transport's per-peer send queues
	// (transport.TCPOptions semantics: coalescing threshold and queue
	// bound; a full queue to a connected peer blocks the broadcaster).
	BatchBytes int
	QueueLen   int
	// Logf receives transport diagnostics (reconnects, bad frames).
	Logf func(format string, args ...any)
}

// WirePeerStats describes one peer link of a daemon: queue depth and
// connection churn.
type WirePeerStats = transport.PeerStats

// WireStats is a daemon's observability snapshot. In the embedded
// counters DroppedLink counts envelopes discarded while a peer link was
// down (repaired by the reconnect digest exchange) and Reconnects peer
// link re-establishments.
type WireStats struct {
	NetworkStats
	// BadFrames counts malformed frames, undecodable data payloads and
	// connections rejected.
	BadFrames uint64
	// DigestsSent and SyncsApplied count the sync-on-connect exchange.
	DigestsSent  uint64
	SyncsApplied uint64
	Peers        []WirePeerStats
}

// WireNode is one daemon replica: a ShardedReplica served over the TCP
// transport, plus the client protocol endpoint.
type WireNode[H any] struct {
	obj    Object[H]
	cfg    WireConfig
	tcp    *transport.TCPNetwork
	rep    *core.ShardedReplica
	handle H
	codec  spec.Codec
}

// ListenAndServe starts one wire replica of the described object.
// Callers on other processes start the remaining ids with the same
// Peers list; the node serves replication traffic and Dial clients
// until Close.
func ListenAndServe[H any](obj Object[H], cfg WireConfig) (*WireNode[H], error) {
	if obj.wrap == nil {
		return nil, fmt.Errorf("updatec: zero Object; use a registered descriptor (SetObject, Define, ...): %w", ErrBadObject)
	}
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("updatec: WireConfig.Peers must list every replica address: %w", ErrBadOption)
	}
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("updatec: WireConfig.ID %d out of range [0,%d): %w", cfg.ID, n, ErrBadOption)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 {
		return nil, fmt.Errorf("updatec: WireConfig.Shards needs at least one shard, got %d: %w", shards, ErrBadOption)
	}
	if shards > 1 && !obj.partitionable() {
		return nil, fmt.Errorf("updatec: %s is not partitionable; sharding requires a spec implementing Partitionable: %w", obj.name, ErrUnsupported)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = cfg.Peers[cfg.ID]
	}
	codec := obj.codec
	if codec == nil {
		return nil, fmt.Errorf("updatec: %s carries no update codec: %w", obj.name, ErrNoCodec)
	}
	tcp, err := transport.NewTCP(transport.TCPOptions{
		ID: cfg.ID, Peers: cfg.Peers, Listen: listen,
		BatchBytes: cfg.BatchBytes, QueueLen: cfg.QueueLen,
		Logf:       cfg.Logf,
		ObjectName: obj.name,
	})
	if err != nil {
		return nil, err
	}
	rep := core.NewShardedReplica(core.ShardedConfig{
		ID: cfg.ID, N: n, Shards: shards, ADT: obj.adt, Codec: codec, Net: tcp, GC: cfg.GC,
	})
	node := &WireNode[H]{obj: obj, cfg: cfg, tcp: tcp, rep: rep, codec: codec}
	node.handle = obj.wrap(rep)
	tcp.SetSyncProvider(rep)
	tcp.SetClientHandler(node.serveClient)
	tcp.Start()
	return node, nil
}

// Handle returns this replica's typed handle — updates issued through
// it broadcast to the whole wire cluster.
func (w *WireNode[H]) Handle() H { return w.handle }

// Addr returns the bound listen address (resolving ":0").
func (w *WireNode[H]) Addr() string { return w.tcp.Addr() }

// StateKey returns the replica's convergence key: its update-set
// fingerprint (core.ShardedReplica.Fingerprint), rendered. Two daemons
// of one cluster have equal keys exactly when they hold the same set of
// update stamps (clock, proc), whatever shard count each runs; keys of
// independent clusters are not comparable. It costs O(shards) whatever
// the replica holds, so polling a replica that is still ingesting is
// cheap.
//
// Equal stamps mean equal updates, and so equal states, only while no
// daemon reuses a stamp. A daemon restarted after a crash breaks that:
// it comes back empty with its clock at 0 and serves clients before its
// on-connect digest exchange has caught it up, so an update written to
// it in that window can take a stamp its peers hold for a different,
// pre-crash update. Each log keeps whichever of the two it saw first,
// the states differ for good, and the keys still agree. Only a canonical
// comparison (Replica.StateKey, the object's ω query) shows it.
func (w *WireNode[H]) StateKey() string { return w.rep.Fingerprint().String() }

// Flush blocks until every queued outbound envelope has been written
// to its peer socket (or the timeout expires).
func (w *WireNode[H]) Flush(timeout time.Duration) error { return w.tcp.Flush(timeout) }

// Stats snapshots the daemon's transport counters.
func (w *WireNode[H]) Stats() WireStats {
	ws := WireStats{NetworkStats: w.tcp.Stats(), BadFrames: w.tcp.BadFrames(), Peers: w.tcp.PeerStats()}
	ws.DigestsSent, ws.SyncsApplied = w.tcp.SyncExchanges()
	return ws
}

// StatsText renders the daemon's stats as a human-readable dump (the
// SIGUSR1 / stats-command format).
func (w *WireNode[H]) StatsText() string {
	s := w.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "node %d obj=%s shards=%d addr=%s\n", w.cfg.ID, w.obj.name, w.rep.NumShards(), w.Addr())
	fmt.Fprintf(&b, "transport: broadcasts=%d sends=%d bytes=%d dropped_link=%d reconnects=%d bad_frames=%d digests_sent=%d syncs_applied=%d\n",
		s.Broadcasts, s.Sends, s.Bytes, s.DroppedLink, s.Reconnects, s.BadFrames, s.DigestsSent, s.SyncsApplied)
	for _, p := range s.Peers {
		fmt.Fprintf(&b, "peer %d addr=%s connected=%v queue=%d/%dB connects=%d sent=%d/%dB dropped_down=%d\n",
			p.Peer, p.Addr, p.Connected, p.QueueDepth, p.QueueBytes, p.Connects, p.SentFrames, p.SentBytes, p.DroppedDown)
	}
	return b.String()
}

// Close shuts the daemon down: the listener, peer links and client
// connections all close. Queued outbound envelopes are dropped — call
// Flush first for a graceful drain.
func (w *WireNode[H]) Close() error { return w.tcp.Close() }

// maxIntakeBytes bounds the update frames the daemon stamps in one write
// step: a client streaming updates has its buffered frames landed and
// broadcast every ~64 KiB, one run per peer frame.
const maxIntakeBytes = 64 << 10

// serveClient runs the daemon side of one client connection: frames in
// order, queries answered in place — one goroutine per client, so a
// client's query observes its own earlier updates (read-your-writes per
// connection).
//
// Updates are fire-and-forget, and the daemon takes them in batches: it
// collects every update frame already in its read buffer (up to
// maxIntakeBytes) and lands them as one write step
// (ShardedReplica.UpdateBatch). The batch lands before any read that
// could block and before any reply, so a lone update is stamped at once,
// a query or a ping sees every update sent before it, and a malformed
// update costs one error reply after the updates ahead of it have landed.
func (w *WireNode[H]) serveClient(conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriter(conn)
	var out []byte
	reply := func(kind byte, payload []byte) bool {
		out = transport.AppendFrame(out[:0], transport.Frame{Kind: kind, From: w.cfg.ID, Payload: payload})
		if _, err := bw.Write(out); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	var (
		batch      []spec.Update
		batchBytes int
		// arena holds the batch's update bytes copied out of br's buffer,
		// which the next read overwrites: a codec may keep the bytes it
		// decodes from. Each batch gets its own.
		arena []byte
	)
	land := func() {
		if len(batch) > 0 {
			w.rep.UpdateBatch(batch)
			clear(batch)
			batch = batch[:0]
		}
		batchBytes, arena = 0, nil
	}
	defer land()
	// take adds one update frame's payload to the batch; a payload that
	// does not decode lands the batch ahead of it and is answered with an
	// error.
	take := func(payload []byte) bool {
		u, err := w.codec.DecodeUpdate(payload)
		if err != nil {
			land()
			return reply(transport.KindError, []byte(fmt.Sprintf("decoding update: %v", err)))
		}
		batch = append(batch, u)
		if batchBytes += len(payload); batchBytes >= maxIntakeBytes {
			land()
		}
		return true
	}
	var res []byte // the encoded query output, reused across queries
	for {
		f, size, buffered, err := transport.BufferedFrame(br, transport.MaxFrame)
		if err != nil {
			return
		}
		if buffered && f.Kind == transport.KindUpdate {
			if arena == nil {
				arena = make([]byte, 0, min(br.Buffered(), maxIntakeBytes))
			}
			at := len(arena)
			arena = append(arena, f.Payload...)
			br.Discard(size)
			if !take(arena[at:]) {
				return
			}
			continue
		}
		land()
		if f, err = transport.ReadFrame(br, transport.MaxFrame); err != nil {
			return
		}
		switch f.Kind {
		case transport.KindUpdate:
			if !take(f.Payload) {
				return
			}
		case transport.KindQuery:
			kind := transport.KindResult
			res, err = w.answerQuery(res[:0], f.Payload)
			outv := res
			if err != nil {
				kind, outv = transport.KindError, []byte(err.Error())
			}
			if !reply(kind, outv) {
				return
			}
		case transport.KindStateKey:
			if !reply(transport.KindResult, []byte(w.StateKey())) {
				return
			}
		case transport.KindStats:
			if !reply(transport.KindResult, []byte(w.StatsText())) {
				return
			}
		case transport.KindPing:
			// The pong is a barrier: every update before the ping on this
			// connection has been applied (same goroutine) and every
			// envelope it queued has been written to the peer sockets.
			w.tcp.Flush(5 * time.Second)
			if !reply(transport.KindPong, nil) {
				return
			}
		default:
			if !reply(transport.KindError, []byte(fmt.Sprintf("unknown client frame kind %d", f.Kind))) {
				return
			}
		}
	}
}

// answerQuery decodes and evaluates one client query and appends its
// encoded output to dst. Every failure — an object without a QueryCodec,
// bytes the codec cannot decode, an input the object does not know
// (specs panic on those) — is an error for the client, never a panic out
// of its serving goroutine.
func (w *WireNode[H]) answerQuery(dst, payload []byte) (out []byte, err error) {
	qc := w.obj.queries
	if qc == nil {
		return dst, fmt.Errorf("updatec: %s carries no query codec: %w", w.obj.name, ErrNoCodec)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = dst, fmt.Errorf("query rejected: %v", r)
		}
	}()
	in, err := qc.DecodeQueryInput(payload)
	if err != nil {
		return dst, err
	}
	return qc.AppendQueryOutput(dst, w.rep.Query(in))
}

// The client's lead over its daemon is bounded twice: Update waits while
// maxClientPending bytes of frames are still unwritten, and the socket's
// send buffer is capped at clientSendBuffer, so a client streaming faster
// than the daemon stamps waits for it instead of queueing megabytes in
// kernel buffers that every later update would have to cross.
const (
	maxClientPending = 256 << 10
	clientSendBuffer = 64 << 10
	// closeDrainTimeout bounds how long Close waits for pending updates
	// to be written to a daemon that stopped reading.
	closeDrainTimeout = 5 * time.Second
)

// Client is a thin connection to one daemon: updates stream as codec
// bytes, queries round-trip as QueryCodec bytes. A Client is safe for
// concurrent use (round trips serialize on the connection); its handle
// offers read-your-writes against the daemon it is connected to.
//
// Updates are written behind the caller: Update appends its frame to a
// pending buffer and returns, and one flusher goroutine writes
// everything pending in one write — at once for a lone update, with no
// timer. A round trip (a query, StateKey, StatsText, Flush) writes the
// pending frames and its own in one write, so it observes every update
// issued before it. The pending buffer is bounded (Update waits for the
// flusher when it is full), Close writes what is pending before it
// closes, and a failed write latches in Err. Flush is the barrier: when
// it returns, the daemon has applied every earlier update and written it
// to its peers.
type Client[H any] struct {
	obj    Object[H]
	codec  spec.Codec
	acodec spec.AppendCodec // non-nil when the codec appends

	mu sync.Mutex
	// work wakes the flusher: frames are pending, or the client closed.
	// moved wakes everyone else: pending was taken (room for an Update
	// waiting on a full buffer), a write ended (a round trip waits for
	// the flusher's), an error latched or the client closed. Two conds,
	// so that a round trip taking the pending frames does not wake a
	// parked flusher for nothing.
	work, moved *sync.Cond
	conn        net.Conn
	br          *bufio.Reader
	// pending holds the update frames not yet written; while writing, the
	// flusher writes the buffer it swapped out for spare with mu released.
	pending, spare []byte
	writing        bool
	closed         bool
	done           chan struct{} // closed when the flusher exits
	enc            []byte        // the encoded update, reused
	qbuf           []byte        // the encoded query input, reused across queries
	err            error         // first error; sticky, and no frame is added after it
	// dead is set when a write to the connection failed: only then are
	// the pending frames dropped instead of written.
	dead bool
}

// Dial connects a client for the given object to a daemon address. The
// hello carries the object's name, so a daemon serving a different
// object refuses the connection outright — the first operation fails
// with an error satisfying errors.Is(err, ErrObjectMismatch) instead of
// decoding garbage.
func Dial[H any](obj Object[H], addr string) (*Client[H], error) {
	if obj.wrap == nil {
		return nil, fmt.Errorf("updatec: zero Object; use a registered descriptor (SetObject, Define, ...): %w", ErrBadObject)
	}
	codec := obj.codec
	if codec == nil {
		return nil, fmt.Errorf("updatec: %s carries no update codec: %w", obj.name, ErrNoCodec)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("updatec: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(clientSendBuffer)
	}
	if _, err := conn.Write(transport.ClientHelloFor(obj.name)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("updatec: hello to %s: %w", addr, err)
	}
	c := &Client[H]{
		obj: obj, codec: codec, conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		done: make(chan struct{}),
	}
	c.acodec, _ = codec.(spec.AppendCodec)
	c.work, c.moved = sync.NewCond(&c.mu), sync.NewCond(&c.mu)
	go c.flushLoop()
	return c, nil
}

// flushLoop is the flusher: it writes whatever is pending, one write per
// wakeup, until the client is closed and nothing is left.
func (c *Client[H]) flushLoop() {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.pending) == 0 && !c.closed {
			c.work.Wait()
		}
		if len(c.pending) == 0 {
			return // closed and drained
		}
		if c.dead {
			c.pending = c.pending[:0]
			continue
		}
		buf := c.pending
		c.pending, c.spare, c.writing = c.spare[:0], nil, true
		c.moved.Broadcast() // room for updates waiting on a full buffer
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		c.mu.Lock()
		c.writing, c.spare = false, buf[:0]
		if err != nil {
			c.writeFailed(err)
		}
		c.moved.Broadcast()
	}
}

// Handle returns the typed handle driving the daemon through this
// connection; it is the same handle type New returns in-process.
func (c *Client[H]) Handle() H { return c.obj.wrap(clientPort[H]{c}) }

// Err returns the first connection error the client has hit (handle
// operations cannot return errors, so failures latch here — a failed
// write of updates the flusher sent behind the caller too).
func (c *Client[H]) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close writes every pending update (waiting at most a few seconds for a
// daemon that stopped reading), then closes the connection. It returns
// the latched connection error, if any, so a caller that checks it knows
// whether every update was written.
func (c *Client[H]) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.conn.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
		c.work.Signal()
		c.moved.Broadcast()
	}
	c.mu.Unlock()
	<-c.done
	cerr := c.conn.Close()
	if err := c.Err(); err != nil {
		return err
	}
	return cerr
}

// Flush is a round-trip barrier: when it returns, every update this
// client issued has been applied by the daemon and written to its peer
// sockets.
func (c *Client[H]) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.roundTrip(transport.KindPing, nil, transport.KindPong); err != nil {
		return err
	}
	return nil
}

// StateKey returns the daemon's convergence key (WireNode.StateKey):
// two daemons of one cluster return equal keys exactly when they hold
// the same set of update stamps, which is the same updates only while no
// daemon reuses a stamp (not so for writes to a daemon restarted after
// a crash, before it has caught up; see WireNode.StateKey).
func (c *Client[H]) StateKey() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.roundTrip(transport.KindStateKey, nil, transport.KindResult)
	return string(p), err
}

// StatsText returns the daemon's stats dump (the -stats command).
func (c *Client[H]) StatsText() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.roundTrip(transport.KindStats, nil, transport.KindResult)
	return string(p), err
}

// sendFailure explains a failed write (mu held). A daemon that refuses
// the hello answers with an error frame and hangs up, so the write that
// first notices the closed socket fails with a bare "broken pipe" while
// the reason sits unread in the receive buffer: report that instead.
// The connection is dead either way, so consuming a frame is harmless.
func (c *Client[H]) sendFailure(werr error) error {
	if c.conn.SetReadDeadline(time.Now().Add(time.Second)) == nil {
		if f, err := transport.ReadFrame(c.br, transport.MaxFrame); err == nil && isObjectMismatch(f) {
			return fmt.Errorf("updatec: server: %s: %w", f.Payload, ErrObjectMismatch)
		}
	}
	return fmt.Errorf("updatec: client send: %w", werr)
}

// isObjectMismatch recognizes the daemon's refusal of a hello naming a
// different object.
func isObjectMismatch(f transport.Frame) bool {
	return f.Kind == transport.KindError && strings.HasPrefix(string(f.Payload), "object mismatch")
}

// writeFailed latches a failed write (mu held): the connection is dead,
// and what is still pending is dropped.
func (c *Client[H]) writeFailed(err error) {
	c.dead = true
	if c.err == nil {
		c.err = c.sendFailure(err)
	}
}

// usable reports why the client cannot take another frame, if it cannot
// (mu held). Being closed is not latched in err: Err and Close report
// only what went wrong on the connection.
func (c *Client[H]) usable() error {
	switch {
	case c.err != nil:
		return c.err
	case c.closed:
		return fmt.Errorf("updatec: client closed: %w", net.ErrClosed)
	}
	return nil
}

// roundTrip sends one frame and reads the matching reply (mu held). The
// frame goes out behind every pending update, in the same write; a write
// the flusher has under way finishes first, so frames never interleave.
func (c *Client[H]) roundTrip(kind byte, payload []byte, want byte) ([]byte, error) {
	for c.writing && c.err == nil {
		c.moved.Wait()
	}
	if err := c.usable(); err != nil {
		return nil, err
	}
	out := transport.AppendFrame(c.pending, transport.Frame{Kind: kind, From: -1, Payload: payload})
	c.pending = out[:0]
	c.moved.Broadcast() // the pending updates are taken
	if _, err := c.conn.Write(out); err != nil {
		c.writeFailed(err)
		return nil, c.err
	}
	f, err := transport.ReadFrame(c.br, transport.MaxFrame)
	if err != nil {
		c.err = fmt.Errorf("updatec: client receive: %w", err)
		return nil, c.err
	}
	switch f.Kind {
	case want:
		return f.Payload, nil
	case transport.KindError:
		if isObjectMismatch(f) {
			// The daemon refused our hello and hung up: this connection is
			// dead, and the configuration is wrong, not the network.
			c.err = fmt.Errorf("updatec: server: %s: %w", f.Payload, ErrObjectMismatch)
			return nil, c.err
		}
		// Any other server-side rejection is not a connection error: the
		// stream stays aligned (one reply per request), so the client
		// keeps working.
		return nil, fmt.Errorf("updatec: server: %s", f.Payload)
	default:
		c.err = fmt.Errorf("updatec: unexpected reply kind %d", f.Kind)
		return nil, c.err
	}
}

// clientPort adapts a Client to the port interface the typed handles
// wrap.
type clientPort[H any] struct{ c *Client[H] }

// Update appends the update's frame to the pending buffer and returns;
// the flusher writes it (see Client). A full buffer makes it wait for the
// flusher, so the client's lead over the daemon stays bounded. An update
// the codec cannot encode latches in Err and stops the client; the
// updates before it are still written. An Update that Close overtakes is
// dropped.
func (p clientPort[H]) Update(u spec.Update) {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) >= maxClientPending && c.err == nil && !c.closed {
		c.moved.Wait()
	}
	if c.usable() != nil {
		return
	}
	var err error
	if c.acodec != nil {
		c.enc, err = c.acodec.AppendUpdate(c.enc[:0], u)
	} else {
		c.enc, err = c.codec.EncodeUpdate(u)
	}
	if err != nil {
		c.err = fmt.Errorf("updatec: encoding update: %w", err)
		return
	}
	idle := len(c.pending) == 0
	c.pending = transport.AppendFrame(c.pending, transport.Frame{Kind: transport.KindUpdate, From: -1, Payload: c.enc})
	if idle {
		c.work.Signal()
	}
}

// Query round-trips a query. The port contract has no error channel
// and the typed handles type-assert the output, so a failed query
// panics with the underlying error (matching the spec layer's
// panic-on-invalid-query idiom) rather than producing a bare nil
// type-assertion failure. An object without a QueryCodec, or an input
// its codec cannot encode, fails before anything is sent, so the
// connection stays usable; connection errors and an answer that does
// not decode latch in Err.
func (p clientPort[H]) Query(in spec.QueryInput) spec.QueryOutput {
	c := p.c
	qc := c.obj.queries
	if qc == nil {
		panic(fmt.Errorf("updatec: %s carries no query codec: %w", c.obj.name, ErrNoCodec))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(); err != nil {
		panic(err)
	}
	var err error
	if c.qbuf, err = qc.AppendQueryInput(c.qbuf[:0], in); err != nil {
		panic(fmt.Errorf("updatec: encoding query: %w", err))
	}
	reply, err := c.roundTrip(transport.KindQuery, c.qbuf, transport.KindResult)
	if err != nil {
		panic(err)
	}
	out, err := qc.DecodeQueryOutput(in, reply)
	if err != nil {
		c.err = fmt.Errorf("updatec: decoding query output: %w", err)
		panic(c.err)
	}
	return out
}
