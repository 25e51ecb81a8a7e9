package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzEnvelopeDecode drives the wire-frame decoder with arbitrary
// bytes: it must never panic, never allocate past the frame bound, and
// every successfully decoded frame must round-trip through AppendFrame
// bit-identically. The streaming reader (ReadFrame) must agree with
// the buffer decoder on every accepted frame.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(AppendFrame(nil, Frame{Kind: KindData, From: 2, Shard: 1, Epoch: 3, Payload: []byte("payload")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindHello, From: -1, Payload: helloPayload(RoleClient, 0, "")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindHello, From: 0, Payload: helloPayload(RolePeer, 3, "counter")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindDigest, From: 0, Payload: bytes.Repeat([]byte{7}, 100)}))
	f.Add(append(AppendFrame(nil, Frame{Kind: KindData, From: 0, Payload: []byte("a")}),
		AppendFrame(nil, Frame{Kind: KindData, From: 1, Payload: []byte("b")})...))

	const max = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, max)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with consumed bytes: n=%d err=%v", n, err)
			}
		} else {
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d", n, len(data))
			}
			enc := AppendFrame(nil, fr)
			fr2, n2, err2 := DecodeFrame(enc, max)
			if err2 != nil {
				t.Fatalf("re-decode of re-encoded frame: %v", err2)
			}
			if n2 != len(enc) || fr2.Kind != fr.Kind || fr2.From != fr.From ||
				fr2.Shard != fr.Shard || fr2.Epoch != fr.Epoch || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", fr, fr2)
			}
		}
		// The streaming reader must accept exactly the frames the buffer
		// decoder accepts (modulo truncation, which it reports as I/O).
		sr, serr := ReadFrame(bufio.NewReader(bytes.NewReader(data)), max)
		if err == nil {
			if serr != nil {
				t.Fatalf("DecodeFrame accepted, ReadFrame rejected: %v", serr)
			}
			if sr.Kind != fr.Kind || sr.From != fr.From || !bytes.Equal(sr.Payload, fr.Payload) {
				t.Fatalf("reader/decoder disagree: %+v vs %+v", sr, fr)
			}
		} else if err == io.ErrUnexpectedEOF {
			if serr == nil {
				t.Fatal("DecodeFrame wants more bytes, ReadFrame accepted")
			}
		}
		// Hello payloads of decoded frames must parse or fail cleanly.
		if err == nil && fr.Kind == KindHello {
			parseHello(fr.Payload)
		}
	})
}

// FuzzHello feeds arbitrary bytes to the hello parser — the first thing
// a daemon reads from any connection, before it knows who is speaking. It
// must never panic; a hello it accepts names a known role, a bounded
// cluster size and a bounded object name, claims a data format only from
// a peer, and survives a re-encode (which claims this build's format).
func FuzzHello(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(WireMagic))
	f.Add(helloPayload(RolePeer, 3, "set"))
	f.Add(helloPayload(RoleClient, 0, ""))
	f.Add(helloPayload(RolePeer, 3, "set")[:len(WireMagic)+2]) // pre-name hello
	f.Add(append(helloPayload(RolePeer, 3, ""), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte(WireMagic), 0x07, 0x03))
	f.Add(helloPayload(RolePeer, 3, "set")[:len(WireMagic)+6])  // a version-1 peer hello
	f.Add(append(helloPayload(RolePeer, 3, "set"), 0x05, 0xff)) // a field after the version

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHello(data)
		if err != nil {
			if h != (helloMsg{}) {
				t.Fatalf("a refused hello returned %+v", h)
			}
			return
		}
		if h.role != RolePeer && h.role != RoleClient || h.size < 0 || h.size > 1<<20 || len(h.name) > 1<<10 {
			t.Fatalf("accepted role=%d n=%d name of %d bytes", h.role, h.size, len(h.name))
		}
		if h.role == RoleClient && h.version != 0 {
			t.Fatalf("accepted a client hello with data format %d", h.version)
		}
		want := helloMsg{role: h.role, size: h.size, name: h.name}
		if h.role == RolePeer {
			want.version = PeerVersion
		}
		if h2, err := parseHello(helloPayload(h.role, h.size, h.name)); err != nil || h2 != want {
			t.Fatalf("re-encoded hello parses to %+v, %v; want %+v", h2, err, want)
		}
	})
}
