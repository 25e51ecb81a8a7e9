package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
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
// change: a replica broadcasts bare messages, a SyncReply body is the
// golden run byte for byte, and a snapshot is its header followed by it.
func TestRunBytesMatchParent(t *testing.T) {
	want := goldenRun(t)
	tap := &tapNet{Network: transport.NewSim(transport.SimOptions{N: 2, Seed: 1})}
	r := NewReplica(Config{ID: 0, N: 2, ADT: spec.Set(), Net: tap})
	for _, u := range goldenScript {
		r.Update(u)
	}
	// The same messages, bare: the run minus count and length prefixes.
	bare := [][]byte{want[2:6], want[7:11], want[13 : 13+133], want[len(want)-3:]}
	if !slices.EqualFunc(tap.sent, bare, bytes.Equal) {
		t.Fatalf("broadcast %x, want %x", tap.sent, bare)
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

// FuzzBatchFrame drives the run decoder — the one parser behind every
// sync reply and snapshot suffix — with arbitrary bytes through a real
// spec codec. It must never panic and never allocate for a count the
// bytes cannot back; what it accepts must survive a re-encode and decode
// unchanged.
func FuzzBatchFrame(f *testing.F) {
	golden := goldenRun(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x03, 0x05, 0x01, 'x', 0x03, 0x05, 0x01, 'x'})

	c := newMessageCodec(spec.Set())
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := c.decodeRun(data)
		if err != nil {
			if entries != nil {
				t.Fatalf("a refused run returned %d entries", len(entries))
			}
			return
		}
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
	})
}

// corruptPayloads are data payloads the set codec does not accept as a
// message: a lone 0xff (an unterminated uvarint), a timestamp cut after
// its clock, and a whole timestamp followed by op bytes the spec does not
// know — bare, and wrapped as the one message of a run.
var corruptPayloads = [][]byte{{0xff}, {0x01}, {0x01, 0x01, 0x05, 0x05}, {0x01, 0x03, 0x01, 0x01, 0x05}}

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
	stale, err := reps[0].wire.appendMessage(nil, clock.Timestamp{Clock: 1, Proc: 1}, spec.Ins{V: "late"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if _, bad := v.(transport.BadPayload); v == nil || bad {
			t.Fatalf("below-horizon arrival panicked with %T %v, want an invariant panic", v, v)
		}
	}()
	reps[0].handle(1, stale)
}
