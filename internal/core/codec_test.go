package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// goldenScript is four set updates — one long enough that its message
// needs a two-byte length prefix, one with an empty value — and goldenRun
// the run a replica with id 0 emitted for them at the commit before the
// codec was unified (as a SyncReply body, and as the batch frame of the
// opt-in intake that has since been removed).
var goldenScript = []spec.Update{spec.Ins{V: "a"}, spec.Del{V: "a"}, spec.Ins{V: strings.Repeat("x", 130)}, spec.Ins{V: ""}}

func goldenRun(t testing.TB) []byte {
	b, err := hex.DecodeString("04" + "0401004961" + "0402004461" + "8501030049" + strings.Repeat("78", 130) + "03040049")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tapNet records every payload a replica broadcasts.
type tapNet struct {
	transport.Network
	sent [][]byte
}

func (n *tapNet) Broadcast(from int, p []byte) {
	n.sent = append(n.sent, p)
	n.Network.Broadcast(from, p)
}

// TestRunBytesMatchParent pins the wire formats this package may not
// change by accident: a SyncReply body is the golden run byte for byte,
// a snapshot is its header followed by it, and every broadcast is a step
// built from the golden run's messages — a lone update its message with
// a count of one and a length slipped in behind the stamp, and the four
// updates issued as one batch the first stamp, a count of four and each
// update's bytes behind its length.
func TestRunBytesMatchParent(t *testing.T) {
	want := goldenRun(t)
	tap := &tapNet{Network: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})}
	r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Set(), Net: tap})
	for _, u := range goldenScript {
		r.Update(u)
	}
	// The golden messages; each stamp is two bytes.
	msgs := [][]byte{want[2:6], want[7:11], want[13 : 13+133], want[len(want)-3:]}
	framed := func(op []byte) []byte { return append(binary.AppendUvarint(nil, uint64(len(op))), op...) }
	var lone [][]byte
	batch := append(slices.Clone(msgs[0][:2]), byte(len(msgs)))
	for _, m := range msgs {
		lone = append(lone, append(append(slices.Clone(m[:2]), 0x01), framed(m[2:])...))
		batch = append(batch, framed(m[2:])...)
	}
	if !slices.EqualFunc(tap.sent, lone, bytes.Equal) {
		t.Fatalf("broadcast %x, want %x", tap.sent, lone)
	}
	batched := &tapNet{Network: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})}
	NewReplica(Config{ID: 0, N: 2, ADT: spec.Set(), Net: batched}).UpdateBatch(goldenScript)
	if len(batched.sent) != 1 || !bytes.Equal(batched.sent[0], batch) {
		t.Fatalf("batch broadcast %x, want the one step %x", batched.sent, batch)
	}
	reply, err := r.SyncReply(Digest{})
	if err != nil || !bytes.Equal(reply, want) {
		t.Fatalf("SyncReply = %x, %v; want %x", reply, err, want)
	}
	snap, err := r.Snapshot()
	if wantSnap := append([]byte{0x04, 0x00, 0x00}, want...); err != nil || !bytes.Equal(snap, wantSnap) {
		t.Fatalf("Snapshot = %x, %v; want %x", snap, err, wantSnap)
	}
}

// TestBatchFrameRoundTrip: what the append side writes for a run is the
// parent's batch-frame format — written here the way the parent wrote it,
// message staged, then length, then copy — and the decode side reads it
// back entry for entry; a run that is short, long or over-counted is
// refused whole.
func TestBatchFrameRoundTrip(t *testing.T) {
	c := newMessageCodec(spec.Set())
	var entries []Entry
	for i, u := range append(goldenScript, spec.Del{V: strings.Repeat("y", 20000)}) {
		entries = append(entries, Entry{TS: clock.Timestamp{Clock: uint64(i*i*100 + 1), Proc: i % 3}, U: u})
	}
	ref := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		op, err := spec.Set().EncodeUpdate(e.U)
		if err != nil {
			t.Fatal(err)
		}
		msg := append(e.TS.Encode(nil), op...)
		ref = append(binary.AppendUvarint(ref, uint64(len(msg))), msg...)
	}
	got, err := c.appendRun([]byte("prefix"), entries)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), ref...)) {
		t.Fatalf("appendRun = %x, %v; want %x", got, err, ref)
	}
	back, err := c.decodeRun(ref)
	if err != nil || !slices.Equal(back, entries) {
		t.Fatalf("decodeRun = %v, %v; want %v", back, err, entries)
	}
	for name, bad := range map[string][]byte{
		"truncated":     ref[:len(ref)-1],
		"trailing byte": append(slices.Clone(ref), 0),
		"over-counted":  append([]byte{byte(len(entries) + 1)}, ref[1:]...),
		"empty":         {},
	} {
		if es, err := c.decodeRun(bad); err == nil {
			t.Fatalf("%s run decoded to %d entries", name, len(es))
		}
	}
}

// FuzzBatchFrame drives the two multi-update decoders with arbitrary
// bytes through a real spec codec: the run decoder — the one parser
// behind every sync reply and snapshot suffix — and the step decoder
// behind every broadcast delivery. Neither may panic or allocate for a
// count the bytes cannot back; what either accepts must survive a
// re-encode and decode unchanged.
func FuzzBatchFrame(f *testing.F) {
	c := newMessageCodec(spec.Set())
	golden := goldenRun(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x03, 0x05, 0x01, 'x', 0x03, 0x05, 0x01, 'x'})
	step := appendStepHeader(nil, clock.Timestamp{Clock: 9, Proc: 2}, len(goldenScript))
	for _, u := range goldenScript {
		step, _ = c.appendStepUpdate(step, u)
	}
	f.Add(step)

	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := c.decodeRun(data); err != nil {
			if entries != nil {
				t.Fatalf("a refused run returned %d entries", len(entries))
			}
		} else {
			if len(entries) > len(data)/3 {
				t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
			}
			again, err := c.appendRun(nil, entries)
			if err != nil {
				t.Fatalf("re-encoding an accepted run: %v", err)
			}
			back, err := c.decodeRun(again)
			if err != nil || !slices.Equal(back, entries) {
				t.Fatalf("re-encoded run decodes to %v, %v; want %v", back, err, entries)
			}
		}
		entries, err := c.decodeStep(nil, data)
		if err != nil {
			if entries != nil {
				t.Fatalf("a refused step returned %d entries", len(entries))
			}
			return
		}
		if len(entries) == 0 || len(entries) > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", len(entries), len(data))
		}
		again := appendStepHeader(nil, entries[0].TS, len(entries))
		for i, e := range entries {
			if e.TS != (clock.Timestamp{Clock: entries[0].TS.Clock + uint64(i), Proc: entries[0].TS.Proc}) {
				t.Fatalf("step entry %d stamped %s after %s", i, e.TS, entries[0].TS)
			}
			if again, err = c.appendStepUpdate(again, e.U); err != nil {
				t.Fatalf("re-encoding an accepted step: %v", err)
			}
		}
		back, err := c.decodeStep(nil, again)
		if err != nil || !slices.Equal(back, entries) {
			t.Fatalf("re-encoded step decodes to %v, %v; want %v", back, err, entries)
		}
	})
}

// corruptPayloads are data payloads the set codec does not accept as a
// step: a lone 0xff (an unterminated uvarint), a timestamp cut after its
// clock, a step that claims more updates than it holds, and a step of
// one whose op bytes the spec does not know.
var corruptPayloads = [][]byte{{0xff}, {0x01}, {0x01, 0x01, 0x05, 0x05}, {0x01, 0x03, 0x01, 0x01, 0x05}}

// stepOf is the broadcast payload of one update: a step of one, after
// prefix (a causal dependency vector, or nothing).
func stepOf(t testing.TB, c messageCodec, prefix []byte, ts clock.Timestamp, u spec.Update) []byte {
	t.Helper()
	p, err := c.appendStepUpdate(appendStepHeader(prefix, ts, 1), u)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepStamps reads the stamps of a broadcast step without decoding its
// updates.
func stepStamps(p []byte) ([]clock.Timestamp, error) {
	first, off, err := clock.DecodeTimestamp(p)
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(p[off:])
	if n <= 0 || count > uint64(len(p)) {
		return nil, fmt.Errorf("malformed step count")
	}
	out := make([]clock.Timestamp, count)
	for i := range out {
		out[i] = clock.Timestamp{Clock: first.Clock + uint64(i), Proc: first.Proc}
	}
	return out, nil
}

// trapNet wraps the handlers process 0 attaches so a test can see what
// they panic with. The networks themselves recover nothing: in process, a
// payload that does not decode was written by this program.
type trapNet struct {
	transport.ResizableNetwork
	got chan any
}

func (n trapNet) Attach(id int, h transport.Handler) {
	n.ResizableNetwork.Attach(id, func(from int, p []byte) {
		defer func() { n.got <- recover() }()
		h(from, p)
	})
}

func (n trapNet) AttachRouter(id int, h transport.EpochHandler) {
	n.ResizableNetwork.AttachRouter(id, func(from, shard, epoch int, p []byte) {
		defer func() { n.got <- recover() }()
		h(from, shard, epoch, p)
	})
}

// TestCorruptPayloadPanicsInProcess: on the simulated and the live
// network a corrupt payload reaches the transport as a panic carrying
// transport.BadPayload, through Replica.handle, the sharded router's
// same-epoch dispatch and its cross-epoch branch; the replica has landed
// nothing.
func TestCorruptPayloadPanicsInProcess(t *testing.T) {
	nets := map[string]func() (transport.ResizableNetwork, func()){
		"sim": func() (transport.ResizableNetwork, func()) {
			net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1})
			return net, func() { net.Quiesce() }
		},
		"live": func() (transport.ResizableNetwork, func()) {
			net := transport.NewLive(2)
			t.Cleanup(net.Close)
			return net, net.Drain
		},
	}
	for name, mk := range nets {
		for _, payload := range corruptPayloads {
			check := func(path string, got chan any, ops func() int) {
				t.Helper()
				if _, ok := (<-got).(transport.BadPayload); !ok || ops() != 0 {
					t.Fatalf("%s %s %x: want a transport.BadPayload panic and nothing landed (holds %d)",
						name, path, payload, ops())
				}
			}
			net, settle := mk()
			trap := trapNet{ResizableNetwork: net, got: make(chan any, 1)}
			r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Set(), Net: trap})
			net.Attach(1, func(int, []byte) {})
			net.Broadcast(1, payload)
			settle()
			check("handle", trap.got, func() int { return r.Stats().TotalOps })

			net, settle = mk()
			trap = trapNet{ResizableNetwork: net, got: make(chan any, 1)}
			sr := NewShardedReplica(ShardedConfig{ID: 0, N: 2, Shards: 1, ADT: spec.Set(), Net: trap})
			net.AttachRouter(1, func(int, int, int, []byte) {})
			for _, epoch := range []int{1, 7} {
				net.BroadcastShardEpoch(1, 0, epoch, payload)
				settle()
				check("route", trap.got, func() int { return sr.Stats().TotalOps })
			}
		}
		// At causal consistency the message rides behind a dependency
		// vector: one cut short, one with an entry missing, and a whole
		// vector before bad op bytes or an origin outside the cluster.
		foreign := stepOf(t, newMessageCodec(spec.Set()), clock.Vector{0, 0}.Encode(nil), clock.Timestamp{Clock: 1, Proc: 7}, spec.Ins{V: "x"})
		for _, payload := range [][]byte{{0x02, 0x01}, {0x01, 0x00, 0x01, 0x01, 0x01}, {0x02, 0x00, 0x00, 0x01, 0x01, 0x05, 0x05}, foreign} {
			net, settle := mk()
			trap := trapNet{ResizableNetwork: net, got: make(chan any, 1)}
			r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Set(), Net: trap, Causal: true})
			net.Attach(1, func(int, []byte) {})
			net.Broadcast(1, payload)
			settle()
			if _, ok := (<-trap.got).(transport.BadPayload); !ok || r.Stats() != (Stats{}) {
				t.Fatalf("%s causal %x: want a transport.BadPayload panic and nothing landed or held (%+v)", name, payload, r.Stats())
			}
		}
	}
}

// TestBelowHorizonIsNotBadPayload: a well-formed message that arrives
// under a strict compaction horizon is an invariant violation, not a
// decode failure — it panics with something other than
// transport.BadPayload, so TCPNetwork's recover-by-type lets it through
// (TestHandleFrameRecoversBadPayloadOnly in internal/transport).
func TestBelowHorizonIsNotBadPayload(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 1, FIFO: true})
	reps := Cluster(2, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 1})
	for i := 0; i < 4; i++ {
		reps[i%2].Update(spec.Ins{V: "v"})
		net.Quiesce()
	}
	reps[0].ForceCompact()
	if reps[0].Stats().Compacted == 0 {
		t.Fatal("test needs a compacted replica")
	}
	stale := stepOf(t, reps[0].wire, nil, clock.Timestamp{Clock: 1, Proc: 1}, spec.Ins{V: "late"})
	defer func() {
		v := recover()
		if _, bad := v.(transport.BadPayload); v == nil || bad {
			t.Fatalf("below-horizon arrival panicked with %T %v, want an invariant panic", v, v)
		}
	}()
	reps[0].handle(1, stale)
}

// countNet is a network that bounds its queues in updates, as
// transport.TCPNetwork does: it records the count each step arrives with
// and on which shard channel.
type countNet struct {
	transport.ResizableNetwork
	mu     sync.Mutex
	counts map[[2]int][]int // (origin, shard) → counts in send order
}

func (n *countNet) BroadcastStep(from, shard, epoch, count int, p []byte) {
	n.mu.Lock()
	n.counts[[2]int{from, shard}] = append(n.counts[[2]int{from, shard}], count)
	n.mu.Unlock()
	n.ResizableNetwork.BroadcastShardEpoch(from, shard, epoch, p)
}

// TestStepCountReachesNetwork: a write step hands the network its update
// count with the payload — from a plain replica and from each shard of a
// sharded one, through its shard channel — so a queue bounded in updates
// weighs a step of k as k.
func TestStepCountReachesNetwork(t *testing.T) {
	batch := []spec.Update{spec.AddKey{K: "a", N: 1}, spec.AddKey{K: "b", N: 1}, spec.AddKey{K: "a", N: 1}, spec.AddKey{K: "c", N: 1}, spec.AddKey{K: "a", N: 1}}
	net := &countNet{ResizableNetwork: transport.NewSim(transport.SimOptions{N: 2, Seed: 1}), counts: map[[2]int][]int{}}
	r := NewReplica(Config{ID: 0, N: 2, ADT: spec.CounterMap(), Net: net})
	r.Update(spec.AddKey{K: "a", N: 1})
	r.UpdateBatch(batch)
	if got := net.counts[[2]int{0, 0}]; !slices.Equal(got, []int{1, 5}) {
		t.Fatalf("plain replica sent counts %v, want [1 5]", got)
	}

	net = &countNet{ResizableNetwork: transport.NewSim(transport.SimOptions{N: 2, Seed: 1}), counts: map[[2]int][]int{}}
	sr := NewShardedReplica(ShardedConfig{ID: 0, N: 2, Shards: 4, ADT: spec.CounterMap(), Net: net})
	sr.UpdateBatch(batch)
	total := 0
	for k, counts := range net.counts {
		if len(counts) != 1 || k[0] != 0 {
			t.Fatalf("shard channel %v sent counts %v, want one step", k, counts)
		}
		total += counts[0]
	}
	if total != len(batch) {
		t.Fatalf("shard steps carried %d updates in all (%v), want %d", total, net.counts, len(batch))
	}
}
