package core

import (
	"encoding/binary"
	"errors"
	"sync"
)

// Wire encoding of the anti-entropy exchange (sync.go), used by the
// TCP transport's sync-on-connect. WireSync wraps one process's
// ShardedReplica behind the three-method shape transport.SyncProvider
// expects; the transport moves the payloads without understanding them.
//
// Digest payload — one process's Digest, whatever its shard count:
//
//	uvarint base,
//	uvarint originCount,
//	originCount × ( uvarint rungCount,
//	                rungCount × ( uvarint clock, uvarint count, uvarint hash ) )
//
// with at most ladderRungs rungs per origin, in strictly ascending clock
// order (see OriginDigest).
//
// Reply payload: the mode byte of the donor's answer, then its body (a
// run of entries, or one snapshot of the donor process); a requester
// missing nothing gets no reply. The two sides need not share a shard
// count: the requester routes the answer by its own table.

// WireSync adapts a ShardedReplica to the transport's byte-level sync
// exchange. It is stateless beyond the replica pointer and safe for
// concurrent use.
type WireSync struct {
	r *ShardedReplica
}

// NewWireSync wraps r for a TCPNetwork.SetSyncProvider hook.
func NewWireSync(r *ShardedReplica) *WireSync { return &WireSync{r: r} }

// DigestPayload encodes the process's digest.
func (w *WireSync) DigestPayload() ([]byte, error) {
	w.r.routeMu.RLock()
	defer w.r.routeMu.RUnlock()
	d := w.r.procShards(w.r.gen.Load()).digest()
	out := binary.AppendUvarint(nil, d.Base)
	out = binary.AppendUvarint(out, uint64(len(d.Origins)))
	for _, od := range d.Origins {
		out = binary.AppendUvarint(out, uint64(len(od)))
		for _, g := range od {
			out = binary.AppendUvarint(out, g.Clock)
			out = binary.AppendUvarint(out, g.Count)
			out = binary.AppendUvarint(out, g.Hash)
		}
	}
	return out, nil
}

// decodeWireDigest parses a DigestPayload, which must be all of p. Every
// count is checked against what the remaining bytes could hold (or its
// fixed ceiling) before anything is allocated for it.
func decodeWireDigest(p []byte) (Digest, error) {
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("core: truncated wire digest")
		}
		p = p[n:]
		return v, nil
	}
	var d Digest
	var err error
	if d.Base, err = next(); err != nil {
		return d, err
	}
	// An origin is at least one byte, its rung count.
	norig, err := next()
	if err != nil || norig > uint64(len(p)) {
		return d, errors.New("core: malformed wire digest origin count")
	}
	d.Origins = make([]OriginDigest, norig)
	for j := range d.Origins {
		nrungs, err := next()
		if err != nil || nrungs > ladderRungs {
			return d, errors.New("core: malformed wire digest rung count")
		}
		od := make(OriginDigest, nrungs)
		for i := range od {
			g := &od[i]
			if g.Clock, err = next(); err != nil {
				return d, err
			}
			if g.Count, err = next(); err != nil {
				return d, err
			}
			if g.Hash, err = next(); err != nil {
				return d, err
			}
			if i > 0 && g.Clock <= od[i-1].Clock {
				return d, errors.New("core: wire digest rungs out of order")
			}
		}
		d.Origins[j] = od
	}
	if len(p) != 0 {
		return d, errors.New("core: trailing bytes after wire digest")
	}
	return d, nil
}

// SyncReply answers a peer's digest at one cut of every shard: the
// entries it is missing, or one snapshot when this process has compacted
// past the peer's horizon. A nil, nil reply means the peer is missing
// nothing.
func (w *WireSync) SyncReply(digest []byte) ([]byte, error) {
	d, err := decodeWireDigest(digest)
	if err != nil {
		return nil, err
	}
	w.r.routeMu.RLock()
	defer w.r.routeMu.RUnlock()
	ps := w.r.procShards(w.r.gen.Load())
	ps.each((*sync.RWMutex).RLock)
	mode, body, err := ps.answerLocked([]byte{0}, d)
	ps.each((*sync.RWMutex).RUnlock)
	if err != nil || mode == syncNone {
		return nil, err
	}
	body[0] = mode
	return body, nil
}

// ApplySync lands a SyncReply payload: decoded and split whole before
// any shard lands, so a malformed one lands nothing.
func (w *WireSync) ApplySync(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("core: empty wire sync reply")
	}
	w.r.routeMu.RLock()
	defer w.r.routeMu.RUnlock()
	_, err := w.r.procShards(w.r.gen.Load()).landBytes(payload[0], payload[1:])
	return err
}
