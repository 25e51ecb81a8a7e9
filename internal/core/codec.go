package core

import (
	"encoding/binary"
	"fmt"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// messageCodec is the one way bytes enter and leave this package. It
// writes and reads two formats:
//
//	message   timestamp (uvarint clock, uvarint proc), then the update's
//	          spec codec bytes to the end of the message — the paper's
//	          message(cl, i, u): "the information to identify the update
//	          and a timestamp composed of two integer values, that only
//	          grow logarithmically with the number of processes and the
//	          number of operations" (§VII-C), measured by
//	          BenchmarkMessageOverhead. The write path broadcasts one bare
//	          message per update.
//	run       uvarint count, then count × ( uvarint length, message ).
//	          An anti-entropy reply and a snapshot's live suffix are each
//	          one run.
//
// The append side stages into a caller-owned buffer and uses the spec's
// AppendCodec when it has one. The decode side parses a whole message or
// run before returning anything, so a caller lands all of it or none.
type messageCodec struct {
	codec  spec.Codec
	acodec spec.AppendCodec // non-nil when codec supports append encoding
}

func newMessageCodec(c spec.Codec) messageCodec {
	ac, _ := c.(spec.AppendCodec)
	return messageCodec{codec: c, acodec: ac}
}

// appendMessage appends message(ts, u) to dst.
func (c messageCodec) appendMessage(dst []byte, ts clock.Timestamp, u spec.Update) ([]byte, error) {
	dst = ts.Encode(dst)
	if c.acodec != nil {
		return c.acodec.AppendUpdate(dst, u)
	}
	op, err := c.codec.EncodeUpdate(u)
	if err != nil {
		return nil, err
	}
	return append(dst, op...), nil
}

// appendRunHeader opens a run of count messages; count appendFramed calls
// complete it.
func appendRunHeader(dst []byte, count int) []byte {
	return binary.AppendUvarint(dst, uint64(count))
}

// appendFramed appends one element of a run: message(ts, u) behind its
// uvarint length. The message is encoded in place after one reserved
// length byte — no staging copy — and moved up only when its length needs
// a wider prefix (128 bytes and more).
func (c messageCodec) appendFramed(dst []byte, ts clock.Timestamp, u spec.Update) ([]byte, error) {
	at := len(dst)
	dst, err := c.appendMessage(append(dst, 0), ts, u)
	if err != nil {
		return nil, fmt.Errorf("core: encoding entry %s: %w", ts, err)
	}
	mlen := len(dst) - at - 1
	if mlen < 0x80 {
		dst[at] = byte(mlen)
		return dst, nil
	}
	var lenb [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lenb[:], uint64(mlen))
	dst = append(dst, lenb[1:w]...) // grow by the extra prefix bytes
	copy(dst[at+w:], dst[at+1:at+1+mlen])
	copy(dst[at:], lenb[:w])
	return dst, nil
}

// appendRun appends entries as one run.
func (c messageCodec) appendRun(dst []byte, entries []Entry) ([]byte, error) {
	dst = appendRunHeader(dst, len(entries))
	for i := range entries {
		var err error
		if dst, err = c.appendFramed(dst, entries[i].TS, entries[i].U); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// mustEncode unwraps an append on the write path, where the update was
// handed in by this process: a codec that cannot encode it is a bug in
// the spec, not a condition to recover from.
func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(fmt.Sprintf("core: cannot encode update: %v", err))
	}
	return b
}

// decodeMessage parses one message.
func (c messageCodec) decodeMessage(msg []byte) (Entry, error) {
	ts, off, err := clock.DecodeTimestamp(msg)
	if err != nil {
		return Entry{}, err
	}
	u, err := c.codec.DecodeUpdate(msg[off:])
	if err != nil {
		return Entry{}, fmt.Errorf("update %s: %w", ts, err)
	}
	return Entry{TS: ts, U: u}, nil
}

// decodeRun parses a whole run, which must be all of p. The count is
// checked against what p could hold before anything is allocated for it.
func (c messageCodec) decodeRun(p []byte) ([]Entry, error) {
	count, off := binary.Uvarint(p)
	if off <= 0 {
		return nil, fmt.Errorf("core: malformed run count")
	}
	// An element is at least a length byte and a two-byte timestamp.
	if count > uint64(len(p))/3 {
		return nil, fmt.Errorf("core: run claims %d messages in %d bytes", count, len(p))
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		mlen, n := binary.Uvarint(p[off:])
		if n <= 0 || uint64(len(p)-off-n) < mlen {
			return nil, fmt.Errorf("core: truncated run message %d", i)
		}
		off += n
		e, err := c.decodeMessage(p[off : off+int(mlen)])
		if err != nil {
			return nil, fmt.Errorf("core: run message %d: %w", i, err)
		}
		off += int(mlen)
		entries = append(entries, e)
	}
	if off != len(p) {
		return nil, fmt.Errorf("core: %d bytes after the run's last message", len(p)-off)
	}
	return entries, nil
}
