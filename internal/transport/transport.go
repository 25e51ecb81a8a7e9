// Package transport provides the wait-free asynchronous message-passing
// substrate of §VII-A: a complete, reliable network connecting n
// sequential processes, any number of which may crash, with no bound on
// message transfer delays.
//
// Three implementations are provided, one file each. SimNetwork
// (sim.go) is a deterministic, seeded simulator in which asynchrony is
// modeled by one adversary that pseudo-randomly chooses which in-flight
// message to deliver next, so the seed alone fixes the delivery
// schedule; it supports crash faults, network partitions, per-link
// faults and FIFO control, and is what the experiment harness uses for
// reproducible runs. LiveNetwork (live.go) delivers messages with real
// goroutines and per-process mailboxes and is used by the examples and
// the race-detector tests. TCPNetwork (tcp.go) carries the same
// envelopes between daemons over sockets.
//
// Every network implements the broadcast contract of Algorithm 1: a
// broadcast is delivered to the sender instantaneously (the handler is
// invoked inline, as in the paper's proof of Proposition 4, "messages
// are received instantaneously by the sender") and to every other
// process asynchronously.
//
// Each also implements ResizableNetwork: envelopes carry a shard and an
// epoch tag and each process attaches one router that receives them,
// which is what the key-sharded construction (core.ShardedReplica) runs
// on. FIFO ordering, when enabled, is enforced per link across all
// shards — each shard's messages are a subsequence of the link, so every
// shard individually observes FIFO delivery too.
package transport

import "fmt"

// Handler consumes a message delivered to a process. Handlers are
// invoked serially per process.
type Handler func(from int, payload []byte)

// BadPayload is the value a Handler or EpochHandler panics with when a
// delivered payload does not decode. On the in-process networks the bytes
// were written by this program, so the panic stands: it is a bug. On
// TCPNetwork they came off a socket, and the receive loop recovers this
// type — and nothing else — to drop the link as it does for any bad frame.
// A handler raises it before it has landed any part of the payload.
type BadPayload struct{ Err error }

func (e BadPayload) Error() string { return e.Err.Error() }

// Network is the broadcast interface replicas are written against.
type Network interface {
	// Attach registers the handler for process id. It must be called
	// before any Broadcast involving id.
	Attach(id int, h Handler)
	// Broadcast sends payload from process `from` to every process.
	// Self-delivery is synchronous; remote delivery is asynchronous.
	Broadcast(from int, payload []byte)
}

// EpochHandler consumes a delivery on a resizable sharded network: the
// envelope's shard and epoch tags are handed to the process's router,
// which dispatches to the owning shard — directly when the epoch
// matches its routing table, by re-routing the payload's key when the
// sender was on an older (or newer) table.
type EpochHandler func(from, shard, epoch int, payload []byte)

// ResizableNetwork extends Network with what a key-sharded, live
// resharding replica needs: every envelope carries a shard tag — the
// network moves each shard's messages on its own channel (on
// LiveNetwork an independent mailbox and dispatcher per shard, so
// deliveries to different shards of one process proceed in parallel) —
// and an epoch tag, each process registers a single router that receives
// every delivery with both tags, and the set of per-(process, shard)
// channels can grow at runtime. A message broadcast under epoch e is
// delivered with that tag even if receivers have since flipped to a
// later routing table — the in-flight old-epoch envelope reaches the
// receiver's router, which lands it in the shard that owns its key
// *now*.
//
// Attach and Broadcast are the shard-0, epoch-0 channel, so unsharded
// replicas compose transparently. Attach and AttachRouter are mutually
// exclusive per process: a process with a router receives everything
// through it.
type ResizableNetwork interface {
	Network
	// AttachRouter registers the per-process router. It must be called
	// before any broadcast involving id.
	AttachRouter(id int, h EpochHandler)
	// BroadcastShardEpoch sends payload from shard `shard` of process
	// `from`, tagged with the sender's routing epoch, to the same shard
	// of every process. Self-delivery is synchronous; remote delivery
	// is asynchronous.
	BroadcastShardEpoch(from, shard, epoch int, payload []byte)
	// EnsureShards guarantees channels exist for shard indices below
	// shards at every process (growing a live network's mailboxes; a
	// no-op where channels are implicit). It must be called before any
	// broadcast to a shard index the network was not built with.
	EnsureShards(shards int)
}

// Stats counts network traffic. Broadcasts is the number of broadcast
// invocations (the unit §VII-C's "a unique message is broadcast for
// each update" refers to; a replica's write step of k updates is one);
// Sends counts point-to-point transmissions that reached a mailbox;
// Bytes counts payload bytes across all sends.
// Message loss is attributed: DroppedCrash counts messages lost to
// crashes (in-flight envelopes discarded when their receiver crashes,
// sends suppressed while it stays down, and CrashPartialBroadcast's
// discarded envelopes), DroppedLink counts losses injected by per-link
// faults (SetLinkFault). Partitions drop nothing — cut messages stay
// queued until Heal.
type Stats struct {
	Broadcasts   uint64
	Sends        uint64
	Delivered    uint64
	DroppedCrash uint64
	DroppedLink  uint64
	Bytes        uint64
	// Reconnects counts peer link establishments after the first: a
	// TCPNetwork that dialed each peer exactly once has zero.
	Reconnects uint64
}

// envelope is one in-flight point-to-point message. The payload slice
// is immutable and shared by every envelope of one broadcast — the
// transport never copies message bytes per recipient. The two one-byte
// fields sit last, together, so the struct stays 88 bytes: mailboxes
// and the simulator's queues copy envelopes by value.
type envelope struct {
	from, to int
	shard    int // destination shard (ResizableNetwork broadcasts)
	epoch    int // sender's routing epoch (ResizableNetwork broadcasts)
	payload  []byte
	// count is how many updates payload carries (TCPNetwork.BroadcastStep);
	// a bounded mailbox weighs the envelope by it. Zero weighs one.
	count int
	seq   uint64 // per-(from,to) link sequence, for FIFO (zero otherwise)
	// elig and lpos belong to SimNetwork's eligible index (simindex.go):
	// elig mirrors eligible(), lpos is the envelope's position in its
	// link's FIFO queue. LiveNetwork leaves both zero.
	lpos int
	elig bool
	// kind distinguishes wire frame types on the TCP path (data vs the
	// sync-on-connect control frames); the in-process networks carry
	// only data envelopes and leave it zero.
	kind byte
}

// weight is what the envelope counts against a bounded mailbox.
func (e *envelope) weight() int { return max(e.count, 1) }

// clearTail zeroes the slots past length so dropped payloads become
// collectable.
func clearTail(s []envelope, length int) {
	for i := length; i < len(s); i++ {
		s[i] = envelope{}
	}
}

// String renders traffic counters for experiment tables.
func (s Stats) String() string {
	return fmt.Sprintf("broadcasts=%d sends=%d delivered=%d dropped_crash=%d dropped_link=%d reconnects=%d bytes=%d",
		s.Broadcasts, s.Sends, s.Delivered, s.DroppedCrash, s.DroppedLink, s.Reconnects, s.Bytes)
}
