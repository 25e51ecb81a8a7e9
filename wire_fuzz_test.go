package updatec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
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
