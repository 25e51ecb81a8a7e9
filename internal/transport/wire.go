package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire framing. Every message on a TCP link is one length-prefixed
// frame:
//
//	uvarint bodyLen
//	body:
//	  byte    kind         (Kind*)
//	  uvarint from+1       (0 = anonymous client)
//	  uvarint shard
//	  uvarint epoch
//	  payload              (bodyLen - header bytes)
//
// The payload of a data frame is exactly the bytes a Broadcast carried
// — a replica's step of timestamped updates, opaque to the transport —
// so the socket transport adds a handful of header bytes and reuses the
// in-process wire format unchanged. The
// same framing carries the connection hello, the sync-on-connect
// digest exchange, and the client protocol (updates, queries, stats).

// Frame kinds.
const (
	// KindData is a replicated broadcast payload (a step of timestamped
	// updates), tagged with its shard and epoch like an in-process
	// envelope.
	KindData byte = 1
	// KindHello opens a connection: payload is the wire magic, a role
	// byte (RolePeer/RoleClient), the sender's cluster size, the object
	// name and, from a peer, its data format (PeerVersion).
	KindHello byte = 2
	// KindDigest carries a replica's encoded anti-entropy digest; the
	// receiver answers with KindSyncReply on its own link.
	KindDigest byte = 3
	// KindSyncReply carries the encoded missing-suffix (or snapshot
	// fallback) reply to a digest.
	KindSyncReply byte = 4
	// KindUpdate is a client-issued update: payload is the spec codec
	// encoding (no timestamp — the serving replica stamps it).
	KindUpdate byte = 5
	// KindQuery is a client query; payload is the encoded input. The
	// server answers with KindResult.
	KindQuery byte = 6
	// KindResult answers KindQuery/KindStateKey/KindStats.
	KindResult byte = 7
	// KindStateKey asks the serving replica for its canonical state key.
	KindStateKey byte = 8
	// KindStats asks the daemon for its text stats dump.
	KindStats byte = 9
	// KindPing is a client flush barrier; the server answers KindPong
	// after processing everything before it on the connection.
	KindPing byte = 10
	// KindPong answers KindPing.
	KindPong byte = 11
	// KindError carries a text error back to a client.
	KindError byte = 12
)

// Connection roles, carried in the hello frame.
const (
	RolePeer   byte = 0
	RoleClient byte = 1
)

// WireMagic opens every hello payload; a connection whose first frame
// lacks it is not speaking this protocol and is closed.
const WireMagic = "ucw1"

// MaxFrame is the default bound on a frame body. A length prefix above
// the bound is treated as a malformed stream (never allocated), so a
// garbage or hostile connection cannot make a daemon allocate
// arbitrary memory.
const MaxFrame = 64 << 20

// FrameError marks a protocol-level decode failure (malformed or
// oversized frame) as opposed to an I/O error: the stream position is
// untrustworthy and the connection must be dropped, and readers count
// it as a bad frame.
type FrameError struct{ msg string }

func (e *FrameError) Error() string { return e.msg }

func frameErrf(format string, args ...any) error {
	return &FrameError{msg: fmt.Sprintf(format, args...)}
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind  byte
	From  int // sending process id; -1 for anonymous clients
	Shard int
	Epoch int
	// Payload aliases the decode buffer (DecodeFrame) or is freshly
	// allocated per frame (ReadFrame).
	Payload []byte
}

// AppendFrame appends the wire encoding of one frame to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [1 + 3*binary.MaxVarintLen64]byte
	hdr[0] = f.Kind
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(f.From+1))
	n += binary.PutUvarint(hdr[n:], uint64(f.Shard))
	n += binary.PutUvarint(hdr[n:], uint64(f.Epoch))
	dst = binary.AppendUvarint(dst, uint64(n+len(f.Payload)))
	dst = append(dst, hdr[:n]...)
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from the front of buf, returning the
// number of bytes consumed. The frame's payload aliases buf. It
// returns io.ErrUnexpectedEOF when buf holds only a prefix of a valid
// frame (read more and retry), and a permanent error for a malformed
// or oversized frame. It never panics on arbitrary input — the fuzz
// target's contract.
func DecodeFrame(buf []byte, max int) (Frame, int, error) {
	bodyLen, n := binary.Uvarint(buf)
	if n == 0 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return Frame{}, 0, frameErrf("transport: malformed frame length")
	}
	if max <= 0 {
		max = MaxFrame
	}
	if bodyLen > uint64(max) {
		return Frame{}, 0, frameErrf("transport: frame length %d exceeds limit %d", bodyLen, max)
	}
	if uint64(len(buf)-n) < bodyLen {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	body := buf[n : n+int(bodyLen)]
	f, err := decodeBody(body)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, n + int(bodyLen), nil
}

func decodeBody(body []byte) (Frame, error) {
	if len(body) == 0 {
		return Frame{}, frameErrf("transport: empty frame body")
	}
	f := Frame{Kind: body[0]}
	rest := body[1:]
	fields := [3]uint64{}
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Frame{}, frameErrf("transport: malformed frame header")
		}
		fields[i] = v
		rest = rest[n:]
	}
	const maxTag = 1 << 30 // header fields are small ints, not 64-bit data
	if fields[0] > maxTag || fields[1] > maxTag || fields[2] > maxTag {
		return Frame{}, frameErrf("transport: frame header field out of range")
	}
	f.From = int(fields[0]) - 1
	f.Shard = int(fields[1])
	f.Epoch = int(fields[2])
	f.Payload = rest
	return f, nil
}

// ReadFrame reads one frame from a buffered stream. The returned
// frame's payload is freshly allocated (safe to retain — handlers and
// the sync provider keep frame bytes past the call). Oversized and
// malformed frames return a permanent error; the caller must drop the
// connection, since the stream position is no longer trustworthy.
func ReadFrame(br *bufio.Reader, max int) (Frame, error) {
	bodyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	if max <= 0 {
		max = MaxFrame
	}
	if bodyLen == 0 {
		return Frame{}, frameErrf("transport: empty frame body")
	}
	if bodyLen > uint64(max) {
		return Frame{}, frameErrf("transport: frame length %d exceeds limit %d", bodyLen, max)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return decodeBody(body)
}

// BufferedFrame decodes the next frame when br already holds all of it,
// reading nothing from the connection; ok is false when it does not, and
// only a blocking ReadFrame gets that frame. The payload aliases br's
// buffer: it is valid until the next read from br, and br.Discard(n)
// consumes the frame. A malformed frame is a permanent error, as with
// ReadFrame.
func BufferedFrame(br *bufio.Reader, max int) (f Frame, n int, ok bool, err error) {
	buf, _ := br.Peek(br.Buffered())
	f, n, err = DecodeFrame(buf, max)
	if err == io.ErrUnexpectedEOF {
		return Frame{}, 0, false, nil
	}
	return f, n, err == nil, err
}

// PeerVersion is the data format a peer hello claims for the payloads of
// its frames. Version 3 sync payloads are one process's: a digest with
// no shard count, and a reply of one mode byte and one body, so daemons
// at different shard counts repair each other. Version 2 framed both per
// shard; its data payloads were already steps — every update of one
// write step in one frame, behind the first one's stamp — where version 1
// (a hello without the field, as sent by a daemon predating it) carried
// one bare message per frame. No version decodes as another, so a
// receiver refuses a peer hello of any other version at handshake: a
// link that let the frames through would be misparsed, or dropped as a
// bad payload at the first frame and redialed forever. Client hellos
// carry no version; the client protocol is unchanged.
const PeerVersion = 3

// helloPayload encodes the connection-opening hello: magic, role, the
// sender's cluster size (a cross-cluster dial is refused early), the
// length-prefixed object name the sender speaks (empty = unstated;
// pre-registry senders simply omit the trailing bytes, which older
// receivers ignored, so the field is compatible in both directions) and,
// for a peer, the uvarint PeerVersion.
func helloPayload(role byte, n int, name string) []byte {
	p := make([]byte, 0, len(WireMagic)+1+3*binary.MaxVarintLen64+len(name))
	p = append(p, WireMagic...)
	p = append(p, role)
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, uint64(len(name)))
	p = append(p, name...)
	if role == RolePeer {
		p = binary.AppendUvarint(p, PeerVersion)
	}
	return p
}

// ClientHello returns the encoded hello frame a client opens a daemon
// connection with (anonymous sender, no cluster size claim, no object
// name claim — the daemon then accepts it for whatever it serves).
func ClientHello() []byte { return ClientHelloFor("") }

// ClientHelloFor is ClientHello claiming an object name: the daemon
// refuses the connection with a KindError reply when it serves a
// different object.
func ClientHelloFor(name string) []byte {
	return AppendFrame(nil, Frame{Kind: KindHello, From: -1, Payload: helloPayload(RoleClient, 0, name)})
}

// helloMsg is a parsed hello payload.
type helloMsg struct {
	role byte
	size int    // the sender's cluster size
	name string // the claimed object name; "" when the sender stated none
	// version is the peer data format claimed (PeerVersion); 1 when the
	// hello stops before the field. Client hellos leave it 0.
	version int
}

// parseHello validates a hello payload. Bytes after the last field it
// knows are ignored, so a later sender can add fields.
func parseHello(p []byte) (helloMsg, error) {
	if len(p) < len(WireMagic)+1 || string(p[:len(WireMagic)]) != WireMagic {
		return helloMsg{}, frameErrf("transport: bad hello magic")
	}
	h := helloMsg{role: p[len(WireMagic)]}
	if h.role != RolePeer && h.role != RoleClient {
		return helloMsg{}, frameErrf("transport: unknown hello role %d", h.role)
	}
	rest := p[len(WireMagic)+1:]
	size, m := binary.Uvarint(rest)
	if m <= 0 || size > 1<<20 {
		return helloMsg{}, frameErrf("transport: malformed hello cluster size")
	}
	h.size, rest = int(size), rest[m:]
	if h.role == RolePeer {
		h.version = 1
	}
	if len(rest) == 0 {
		return h, nil // pre-name hello
	}
	nameLen, m := binary.Uvarint(rest)
	if m <= 0 || nameLen > 1<<10 || uint64(len(rest)-m) < nameLen {
		return helloMsg{}, frameErrf("transport: malformed hello object name")
	}
	h.name, rest = string(rest[m:m+int(nameLen)]), rest[m+int(nameLen):]
	if h.role != RolePeer || len(rest) == 0 {
		return h, nil
	}
	v, m := binary.Uvarint(rest)
	if m <= 0 || v > 1<<20 {
		return helloMsg{}, frameErrf("transport: malformed hello data format version")
	}
	h.version = int(v)
	return h, nil
}
