package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire encoding of the anti-entropy exchange (sync.go), used by the
// TCP transport's sync-on-connect: in-process the exchange passes a
// Digest struct and an opaque reply between *Replica values, but
// across a socket both directions must be bytes. WireSync wraps one
// process's ShardedReplica behind the three-method shape
// transport.SyncProvider expects — the transport moves the payloads
// without understanding them, exactly as it moves update frames.
//
// Digest payload (all shards of one replica, in shard order):
//
//	uvarint shardCount
//	shardCount × ( uvarint base,
//	               uvarint originCount,
//	               originCount × ( uvarint rungCount,
//	                               rungCount × ( uvarint clock, uvarint count, uvarint hash ) ) )
//
// with at most ladderRungs rungs per origin, in strictly ascending clock
// order (see OriginDigest).
//
// Reply payload:
//
//	uvarint shardCount
//	shardCount × ( byte mode, mode≠0 → uvarint len + body )
//
// where mode and body are exactly what the donor shard's syncAnswer
// produced and the requester shard's syncLand consumes (sync.go): 1
// carries a Replica.SyncReply entry run and 2 a full Replica.Snapshot —
// the per-shard fallback when the donor shard has compacted past the
// requester's horizon. Mode 0 means the requester's shard is missing
// nothing.
//
// Both sides refuse mismatched shard counts, like
// ShardedReplica.SyncFrom: wire clusters do not resize live (the TCP
// transport has no cross-process drain barrier), so a mismatch means
// misconfiguration, not a transient.

// WireSync adapts a ShardedReplica to the transport's byte-level sync
// exchange. It is stateless beyond the replica pointer and safe for
// concurrent use (the per-shard sync entry points lock internally).
type WireSync struct {
	r *ShardedReplica
}

// NewWireSync wraps r for a TCPNetwork.SetSyncProvider hook.
func NewWireSync(r *ShardedReplica) *WireSync { return &WireSync{r: r} }

// DigestPayload encodes every shard's digest.
func (w *WireSync) DigestPayload() ([]byte, error) {
	gen := w.r.gen.Load()
	out := binary.AppendUvarint(nil, uint64(len(gen.shards)))
	for _, sh := range gen.shards {
		d := sh.Digest()
		out = binary.AppendUvarint(out, d.Base)
		out = binary.AppendUvarint(out, uint64(len(d.Origins)))
		for _, od := range d.Origins {
			out = binary.AppendUvarint(out, uint64(len(od)))
			for _, g := range od {
				out = binary.AppendUvarint(out, g.Clock)
				out = binary.AppendUvarint(out, g.Count)
				out = binary.AppendUvarint(out, g.Hash)
			}
		}
	}
	return out, nil
}

// decodeWireDigest parses a DigestPayload into per-shard Digests. Every
// count is checked against what the remaining bytes could hold (or its
// fixed ceiling) before anything is allocated for it.
func decodeWireDigest(p []byte) ([]Digest, error) {
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("core: truncated wire digest")
		}
		p = p[n:]
		return v, nil
	}
	// A shard is at least two bytes (base, origin count), an origin one.
	nshards, err := next()
	if err != nil || nshards > uint64(len(p))/2 {
		return nil, errors.New("core: malformed wire digest shard count")
	}
	ds := make([]Digest, nshards)
	for s := range ds {
		if ds[s].Base, err = next(); err != nil {
			return nil, err
		}
		norig, err := next()
		if err != nil || norig > uint64(len(p)) {
			return nil, errors.New("core: malformed wire digest origin count")
		}
		ds[s].Origins = make([]OriginDigest, norig)
		for j := range ds[s].Origins {
			nrungs, err := next()
			if err != nil || nrungs > ladderRungs {
				return nil, errors.New("core: malformed wire digest rung count")
			}
			od := make(OriginDigest, nrungs)
			for i := range od {
				g := &od[i]
				if g.Clock, err = next(); err != nil {
					return nil, err
				}
				if g.Count, err = next(); err != nil {
					return nil, err
				}
				if g.Hash, err = next(); err != nil {
					return nil, err
				}
				if i > 0 && g.Clock <= od[i-1].Clock {
					return nil, errors.New("core: wire digest rungs out of order")
				}
			}
			ds[s].Origins[j] = od
		}
	}
	return ds, nil
}

// SyncReply answers a peer's digest with, per shard, the entry suffix
// it is missing — or a snapshot when this donor has compacted past the
// peer's horizon. A nil, nil reply means no shard is missing anything.
func (w *WireSync) SyncReply(digest []byte) ([]byte, error) {
	ds, err := decodeWireDigest(digest)
	if err != nil {
		return nil, err
	}
	gen := w.r.gen.Load()
	if len(ds) != len(gen.shards) {
		return nil, fmt.Errorf("core: wire sync requires equal shard counts (peer has %d, have %d)", len(ds), len(gen.shards))
	}
	out := binary.AppendUvarint(nil, uint64(len(gen.shards)))
	empty := true
	for s, sh := range gen.shards {
		mode, body, err := sh.syncAnswer(ds[s])
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		out = append(out, mode)
		if mode == syncNone {
			continue
		}
		empty = false
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	}
	if empty {
		return nil, nil
	}
	return out, nil
}

// ApplySync lands a SyncReply payload shard by shard.
func (w *WireSync) ApplySync(payload []byte) error {
	nshards, n := binary.Uvarint(payload)
	if n <= 0 {
		return errors.New("core: malformed wire sync reply shard count")
	}
	p := payload[n:]
	gen := w.r.gen.Load()
	if nshards != uint64(len(gen.shards)) {
		return fmt.Errorf("core: wire sync reply for %d shards, have %d", nshards, len(gen.shards))
	}
	for s, sh := range gen.shards {
		if len(p) == 0 {
			return fmt.Errorf("core: truncated wire sync reply at shard %d", s)
		}
		mode := p[0]
		p = p[1:]
		if mode == syncNone {
			continue
		}
		blen, m := binary.Uvarint(p)
		if m <= 0 || uint64(len(p)-m) < blen {
			return fmt.Errorf("core: truncated wire sync reply body at shard %d", s)
		}
		body := p[m : m+int(blen)]
		p = p[m+int(blen):]
		if _, err := sh.syncLand(mode, body); err != nil {
			return fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return nil
}
