package updatec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"testing"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// FuzzClientQuery feeds arbitrary KindQuery payloads to a daemon's client
// loop (serveClient) over an in-memory connection. Each must get exactly
// one reply — a result that decodes against the input for a query the
// object answers, an error for anything else — after which the
// connection is still aligned and served. A panic escaping serveClient
// fails the fuzzer.
func FuzzClientQuery(f *testing.F) {
	obj := CounterMapObject()
	node := &WireNode[*CounterMap]{obj: obj, codec: obj.codec, rep: core.NewShardedReplica(core.ShardedConfig{
		ID: 0, N: 1, Shards: 2, ADT: obj.adt, Codec: obj.codec,
		Net: transport.NewSim(transport.SimOptions{N: 1, Seed: 1}),
	})}
	for i := 0; i < 20; i++ {
		node.rep.Update(spec.AddKey{K: fmt.Sprint("k", i%5), N: 1})
	}
	qc := obj.queries
	known, err := qc.AppendQueryInput(nil, spec.ReadCtr{K: "k1"})
	if err != nil {
		f.Fatal(err)
	}
	// Every built-in input — the two this object answers (a keyed and a
	// whole-state read) and the other objects' — and their halves.
	for _, in := range []spec.QueryInput{
		spec.Read{}, spec.Has{V: "k1"}, spec.ReadLog{}, spec.ReadSeq{}, spec.ReadGraph{},
		spec.ReadKey{K: "k1"}, spec.ReadCtr{K: "k1"}, spec.ReadAllCtrs{}, spec.Front{}, spec.Top{},
	} {
		b, err := qc.AppendQueryInput(nil, in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	// An update's codec bytes, and a length prefix claiming 2^60 elements.
	upd, err := obj.codec.EncodeUpdate(spec.AddKey{K: "k1", N: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upd)
	f.Add(binary.AppendUvarint(nil, 1<<60))

	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			node.serveClient(server, bufio.NewReader(server))
		}()
		defer func() {
			client.Close()
			server.Close()
			<-done
		}()
		br := bufio.NewReader(client)
		ask := func(payload []byte) transport.Frame {
			t.Helper()
			if _, err := client.Write(transport.AppendFrame(nil, transport.Frame{Kind: transport.KindQuery, From: -1, Payload: payload})); err != nil {
				t.Fatalf("the daemon stopped reading: %v", err)
			}
			reply, err := transport.ReadFrame(br, transport.MaxFrame)
			if err != nil {
				t.Fatalf("no reply: %v", err)
			}
			return reply
		}
		switch reply := ask(data); reply.Kind {
		case transport.KindError:
		case transport.KindResult:
			in, err := qc.DecodeQueryInput(data)
			if err != nil {
				t.Fatalf("a result for an input that does not decode: %v", err)
			}
			if _, err := qc.DecodeQueryOutput(in, reply.Payload); err != nil {
				t.Fatalf("a result that does not decode: %v", err)
			}
		default:
			t.Fatalf("reply kind %d to a query", reply.Kind)
		}
		reply := ask(known)
		if out, err := qc.DecodeQueryOutput(spec.ReadCtr{K: "k1"}, reply.Payload); reply.Kind != transport.KindResult || err != nil || out != spec.CtrVal(4) {
			t.Fatalf("after %x the known query got kind %d: %v (%v)", data, reply.Kind, out, err)
		}
	})
}

// FuzzClientIntake feeds arbitrary frame sequences to a daemon's client
// loop (serveClient) over an in-memory connection read through a buffer
// of fuzzed size, so runs of update frames are batched, cut by the
// buffer's edge, or read one blocking frame at a time. The daemon must
// not panic, must answer every request frame and every update that does
// not decode with exactly one reply, in order, and must land every
// update that decodes exactly once.
//
// The input is a list of frames: a kind byte, a length byte, that many
// payload bytes. The first length byte of 0xff stands for a payload of
// 70 000 bytes, longer than any intake buffer.
func FuzzClientIntake(f *testing.F) {
	obj := SetObject()
	// Every input gets a fresh replica; they share an idle transport,
	// which a ping flushes and the stats dump reads.
	tcp, err := transport.NewTCP(transport.TCPOptions{ID: 0, Peers: []string{"127.0.0.1:0"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { tcp.Close() })
	upd := func(u spec.Update) []byte {
		b, err := obj.codec.EncodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte{transport.KindUpdate, byte(len(b))}, b...)
	}
	read, err := obj.queries.AppendQueryInput(nil, spec.Has{V: "a"})
	if err != nil {
		f.Fatal(err)
	}
	query := append([]byte{transport.KindQuery, byte(len(read))}, read...)
	f.Add(byte(0), slices.Concat(upd(spec.Ins{V: "a"}), upd(spec.Ins{V: "b"}), []byte{transport.KindUpdate, 1, 0xff}, upd(spec.Del{V: "a"}), query))
	f.Add(byte(200), slices.Concat(upd(spec.Ins{V: "x"}), []byte{transport.KindPing, 0, transport.KindStateKey, 0, transport.KindStats, 0, 42, 0}))
	f.Add(byte(3), slices.Concat(upd(spec.Ins{V: "y"}), []byte{transport.KindUpdate, 0xff}, query))

	f.Fuzz(func(t *testing.T, bufSize byte, data []byte) {
		type sent struct {
			kind    byte
			payload []byte
		}
		var frames []sent
		long := false
		for len(data) >= 2 {
			kind, n := data[0], int(data[1])
			data = data[2:]
			var payload []byte
			if n == 0xff && !long {
				payload, long = append([]byte{'I'}, bytes.Repeat([]byte{'z'}, 70000)...), true
			} else {
				payload = data[:min(n, len(data))]
				data = data[len(payload):]
			}
			frames = append(frames, sent{kind, payload})
		}
		frames = append(frames, sent{transport.KindPing, nil})
		// The reply each frame draws, in order; a query may draw either.
		const resultOrError = 0
		var replies []byte
		landed := 0
		for _, fr := range frames {
			switch fr.kind {
			case transport.KindUpdate:
				if _, err := obj.codec.DecodeUpdate(fr.payload); err != nil {
					replies = append(replies, transport.KindError)
				} else {
					landed++
				}
			case transport.KindQuery:
				replies = append(replies, resultOrError)
			case transport.KindStateKey, transport.KindStats:
				replies = append(replies, transport.KindResult)
			case transport.KindPing:
				replies = append(replies, transport.KindPong)
			default:
				replies = append(replies, transport.KindError)
			}
		}
		var stream []byte
		for _, fr := range frames {
			stream = transport.AppendFrame(stream, transport.Frame{Kind: fr.kind, From: -1, Payload: fr.payload})
		}

		node := &WireNode[*Set]{obj: obj, codec: obj.codec, tcp: tcp, rep: core.NewShardedReplica(core.ShardedConfig{
			ID: 0, N: 1, Shards: 1, ADT: obj.adt, Codec: obj.codec,
			Net: transport.NewSim(transport.SimOptions{N: 1, Seed: 1}),
		})}
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			node.serveClient(server, bufio.NewReaderSize(server, 16+int(bufSize)*8))
		}()
		defer func() {
			client.Close()
			<-done
		}()
		go client.Write(stream)
		br := bufio.NewReader(client)
		for i, want := range replies {
			reply, err := transport.ReadFrame(br, transport.MaxFrame)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(replies), err)
			}
			if reply.Kind != want && (want != resultOrError || reply.Kind != transport.KindResult && reply.Kind != transport.KindError) {
				t.Fatalf("reply %d of %d has kind %d, want %d", i+1, len(replies), reply.Kind, want)
			}
		}
		if got := node.rep.Stats().TotalOps; got != landed {
			t.Fatalf("%d updates landed, want %d", got, landed)
		}
	})
}
