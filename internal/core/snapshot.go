package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"updatec/internal/clock"
	"updatec/internal/spec"
)

// State transfer. The paper's model fixes the process set, but its
// motivation (§II) includes peer-to-peer systems "where peers may join
// and leave". A joining or recovering replica does not need to replay
// the network's entire message history: any existing replica can hand
// it a Snapshot — the compacted base state (if any), the live
// timestamped update log, and the clock — after which the newcomer is
// exactly as converged as its donor and continues from live traffic.
//
// Snapshots are self-delimiting byte strings:
//
//	uvarint clock
//	uvarint baseLen  (folded update count)
//	byte    hasBase  (1 when a base block follows)
//	[ baseTS, u64le baseSum, uvarint len(baseState), baseState ]
//	                 when hasBase == 1
//	the live entries, as one run (codec.go)
//
// baseSum is the base's share of the Fingerprint sum, counted like
// baseLen, so a restored or merged log carries the donor's fingerprint
// for what it adopts folded. A pull's snapshot (procShards.foldLocked)
// stamps its base (H, MaxInt): it folds every update up to the donor's
// horizon H. Base presence is an explicit flag because a base split by
// key carries baseLen 0 in every shard but shard 0, which carries the
// whole count (procShards.installLocked).
//
// Encoding the base state requires the spec to implement
// spec.StateCodec; uncompacted replicas need only the update codec. A
// masking log never has a base: its snapshot is the winners alone, one
// per mask key, without the dead entries it has not purged yet.

// Snapshot serializes the replica's replicated state. Like SyncReply it
// holds only the read half of the lock, so the donor keeps serving.
func (r *Replica) Snapshot() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	base, baseTS := r.log.Base()
	return r.appendSnapshot(nil, r.log.TotalLen()-r.log.Len(), base, baseTS, r.log.baseSum(), r.log.unmasked())
}

// appendSnapshot appends to out a snapshot at the process clock: base
// (nil: none) folding baseLen updates up to baseTS with fingerprint sum
// baseSum, then the live entries.
func (r *Replica) appendSnapshot(out []byte, baseLen int, base spec.State, baseTS clock.Timestamp, baseSum uint64, live []Entry) ([]byte, error) {
	out = binary.AppendUvarint(slices.Grow(out, 32+len(live)*16), r.clk.Now())
	out = binary.AppendUvarint(out, uint64(baseLen))
	if base == nil {
		out = append(out, 0)
	} else {
		sc, ok := r.adt.(spec.StateCodec)
		if !ok {
			return nil, fmt.Errorf("core: %s has a compacted log but no spec.StateCodec; cannot snapshot", r.adt.Name())
		}
		stateBytes, err := sc.EncodeState(base)
		if err != nil {
			return nil, fmt.Errorf("core: encoding base state: %w", err)
		}
		out = baseTS.Encode(append(out, 1))
		out = binary.LittleEndian.AppendUint64(out, baseSum)
		out = binary.AppendUvarint(out, uint64(len(stateBytes)))
		out = append(out, stateBytes...)
	}
	return r.wire.appendRun(out, live)
}

// snapshotData is a decoded Snapshot; parseSnapshot produces it for
// Restore (fresh replicas) and MergeSnapshot (recovery with pre-crash
// state).
type snapshotData struct {
	clock   uint64
	baseLen int
	base    spec.State // nil when nothing was compacted
	baseTS  clock.Timestamp
	baseSum uint64
	entries []Entry
}

// parseSnapshot decodes a snapshot without touching the replica's
// state.
func (r *Replica) parseSnapshot(snap []byte) (snapshotData, error) {
	var sd snapshotData
	cl, off := binary.Uvarint(snap)
	if off <= 0 {
		return sd, fmt.Errorf("core: malformed snapshot clock")
	}
	sd.clock = cl
	baseLen, n := binary.Uvarint(snap[off:])
	if n <= 0 {
		return sd, fmt.Errorf("core: malformed snapshot base length")
	}
	sd.baseLen = int(baseLen)
	off += n
	if off >= len(snap) {
		return sd, fmt.Errorf("core: truncated snapshot base flag")
	}
	hasBase := snap[off]
	off++
	if hasBase > 1 {
		return sd, fmt.Errorf("core: malformed snapshot base flag %d", hasBase)
	}
	if hasBase == 1 {
		sc, ok := r.adt.(spec.StateCodec)
		if !ok {
			return sd, fmt.Errorf("core: snapshot has a base state but %s lacks spec.StateCodec", r.adt.Name())
		}
		baseTS, m, err := clock.DecodeTimestamp(snap[off:])
		if err != nil {
			return sd, fmt.Errorf("core: malformed snapshot base timestamp: %w", err)
		}
		off += m
		if len(snap)-off < 8 {
			return sd, fmt.Errorf("core: truncated snapshot base sum")
		}
		sd.baseSum = binary.LittleEndian.Uint64(snap[off:])
		off += 8
		stateLen, m2 := binary.Uvarint(snap[off:])
		if m2 <= 0 || uint64(len(snap)-off-m2) < stateLen {
			return sd, fmt.Errorf("core: truncated snapshot base state")
		}
		off += m2
		base, err := sc.DecodeState(snap[off : off+int(stateLen)])
		if err != nil {
			return sd, fmt.Errorf("core: decoding snapshot base state: %w", err)
		}
		off += int(stateLen)
		sd.base, sd.baseTS = base, baseTS
	}
	var err error
	if sd.entries, err = r.wire.decodeRun(snap[off:]); err != nil {
		return sd, fmt.Errorf("core: snapshot entries: %w", err)
	}
	return sd, nil
}

// Restore installs a snapshot into a *fresh* replica (no updates
// observed yet). The replica's clock is lifted to the snapshot clock
// so its future updates are ordered after everything it absorbed. A
// replica that already holds state recovers with MergeSnapshot instead.
// The restored base keeps the strict below-horizon guard, so a snapshot
// that carries a live entry at or below its own base is refused as
// malformed rather than landed.
func (r *Replica) Restore(snap []byte) error {
	sd, err := r.parseSnapshot(snap)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log.TotalLen() != 0 {
		return fmt.Errorf("core: Restore requires a fresh replica (log has %d updates)", r.log.TotalLen())
	}
	if sd.base != nil {
		for _, e := range sd.entries {
			if !sd.baseTS.Less(e.TS) {
				return fmt.Errorf("core: snapshot holds live entry %s at or below its own base %s", e.TS, sd.baseTS)
			}
		}
	}
	r.installSnapshotLocked(sd, false)
	return nil
}

// RestoreBase installs a compacted prefix into an empty log (state
// transfer only); baseSum is the base's share of the fingerprint sum.
func (l *Log) RestoreBase(base spec.State, baseTS clock.Timestamp, baseLen int, baseSum uint64) {
	if l.TotalLen() != 0 {
		panic("core: RestoreBase requires an empty log")
	}
	l.base = base
	l.baseTS = baseTS
	l.baseLen = baseLen
	l.sum = baseSum
	l.version++
}
