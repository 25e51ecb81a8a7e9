package transport

// The parallel adversary. The backlog is partitioned by destination
// process into per-worker shards; StepParallel runs one round: each
// worker makes its round-robin share of up to `batch` picks from its
// own shard with its own seeded PRNG, concurrently, and the
// coordinator then replays the round's buffered handler broadcasts in
// worker order. The resulting schedule — the round-robin merge of the
// per-worker pick sequences — is a pure function of (seed, workers,
// batch): no wall-clock, goroutine scheduling or map order leaks in.
//
// Why this is safe without locks:
//
//   - a worker owns every process id with id mod W == its index, and
//     with it that process's deliveries, its shard of the backlog, and
//     (FIFO mode) the queues and sequence cursors of every link INTO
//     those processes — all disjoint across workers;
//   - replica handlers only mutate the receiving replica (delivery in
//     Algorithm 1 is a log insert, never a broadcast), so concurrent
//     deliveries to distinct processes don't race;
//   - handlers that DO broadcast on delivery (a relay) broadcast as
//     the process being delivered to, which the current worker owns:
//     the self-copy is delivered inline and the remote fan-out is
//     buffered in the worker's outbox, replayed by the coordinator
//     after the round (drop draws from the root rng, deterministic);
//   - structural operations — driver broadcasts, Crash, Partition,
//     Heal, Resize — happen between rounds, on the coordinator.
//
// With one worker the machinery degenerates to the sequential
// adversary: the single shard draws from the root rng, so a batch-1
// round performs the exact rng draw sequence of Step (pick, duplicate
// draws, then the buffered broadcast's drop draws — which Step makes
// inline during the handler call), and the schedule is bit-for-bit the
// historical one. TestSimParallelMatchesSequential retains that proof.

import (
	"math/rand"
	"sync"
)

// simShard is one worker's slice of the adversary: the pending
// envelopes addressed to the processes it owns, their eligible index,
// and the round-local state (PRNG, outbox, stat deltas, schedule
// fingerprint). With Workers <= 1, shard 0's rng aliases the root rng.
type simShard struct {
	self      int
	rng       *rand.Rand
	pending   []envelope
	eligCount int
	idx       fenwick
	// Round state, owned by the worker during a round and drained by
	// the coordinator between rounds.
	roundStats Stats
	outbox     []bufMsg
	delivered  int
	dupID      uint64
	// Schedule fingerprint: a running hash over this shard's picks, in
	// pick order. The merged fingerprint (ScheduleFingerprint) pins the
	// whole schedule for the determinism regression tests.
	picks uint64
	fp    uint64
}

// bufMsg is a handler broadcast buffered during a parallel round; the
// self-copy was already delivered inline, the remote fan-out replays
// after the round.
type bufMsg struct {
	from, shard, epoch int
	payload            []byte
}

// workerSeed derives worker w's PRNG seed from the network seed
// (splitmix64), so (seed, workers) fixes every per-shard stream and no
// worker stream aliases the root rng's.
func workerSeed(seed uint64, w int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(w+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fpMix folds one pick (sender, receiver) into a running schedule
// fingerprint (splitmix64-style).
func fpMix(h, from, to uint64) uint64 {
	x := h ^ (from*0x9e3779b97f4a7c15 + to + 0x632be59bd9b4e019)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bufferBroadcast handles a Broadcast issued by a handler during a
// parallel round: self-delivery inline on the owning worker, remote
// fan-out deferred to the coordinator. Handlers must broadcast only as
// the process they are attached to — `from` identifies the owning
// worker, and a foreign `from` would race on another worker's outbox.
func (n *SimNetwork) bufferBroadcast(from, shard, epoch int, payload []byte) {
	if n.crashed[from] {
		return
	}
	sh := n.shardOf(from)
	sh.roundStats.Broadcasts++
	sh.roundStats.Sends++
	sh.roundStats.Delivered++
	sh.roundStats.Bytes += uint64(len(payload))
	n.deliver(from, from, shard, epoch, payload)
	sh.outbox = append(sh.outbox, bufMsg{from: from, shard: shard, epoch: epoch, payload: payload})
}

// runWorker performs up to quota picks on shard w: the worker half of
// one parallel round. It touches only worker-owned state (see the
// file comment), draws only from the shard rng, and returns the number
// of messages delivered.
func (n *SimNetwork) runWorker(w, quota int) int {
	sh := &n.shards[w]
	delivered := 0
	for delivered < quota {
		if sh.eligCount == 0 {
			break
		}
		k := sh.rng.Intn(sh.eligCount)
		at := k
		if sh.eligCount != len(sh.pending) {
			at = sh.idx.selectK(k)
		}
		e := n.removeFrom(sh, at)
		if n.opts.DuplicateProb > 0 && sh.rng.Float64() < n.opts.DuplicateProb {
			dup := e
			dup.id = n.dupID(sh)
			n.enqueueShard(sh, dup)
			sh.roundStats.Sends++
			sh.roundStats.Bytes += uint64(len(e.payload))
		}
		if n.hasFaults {
			link := n.link(e.from, e.to)
			if f := n.fault(link); f.Dup > 0 && sh.rng.Float64() < f.Dup {
				dup := e
				dup.id = n.dupID(sh)
				if n.opts.FIFO {
					n.linkSeq[link]++
					dup.seq = n.linkSeq[link]
				}
				n.enqueueShard(sh, dup)
				sh.roundStats.Sends++
				sh.roundStats.Bytes += uint64(len(e.payload))
			}
		}
		sh.roundStats.Delivered++
		sh.picks++
		sh.fp = fpMix(sh.fp, uint64(e.from), uint64(e.to))
		n.deliver(e.to, e.from, e.shard, e.epoch, e.payload)
		delivered++
	}
	return delivered
}

// dupID issues a worker-local envelope id for a duplicate created
// during a round (the coordinator's nextID cannot be touched from a
// worker). Ids are tie-break/debug metadata, never consulted by the
// schedule, so per-worker numbering spaces are fine.
func (n *SimNetwork) dupID(sh *simShard) uint64 {
	sh.dupID++
	return uint64(sh.self)<<48 | sh.dupID | 1<<63
}

// StepParallel delivers up to batch messages in one parallel round and
// returns how many were delivered. The batch is dealt to the workers
// round-robin (worker 0 gets pick 1, worker 1 pick 2, …), each worker
// executes its share concurrently against its own shard, and the
// round's buffered handler broadcasts are then fanned out in worker
// order. A batch of 0 defaults to the worker count.
//
// Determinism: the delivery schedule and final states are a pure
// function of (seed, workers, the sequence of batch sizes) — see the
// file comment. With Workers <= 1 and batch 1 the schedule is exactly
// the sequential Step's.
func (n *SimNetwork) StepParallel(batch int) int {
	if batch <= 0 {
		batch = n.nshards
	}
	w := n.nshards
	base, extra := batch/w, batch%w
	n.inRound = true
	if w == 1 {
		// One worker needs no goroutines.
		n.shards[0].delivered = n.runWorker(0, batch)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			quota := base
			if i < extra {
				quota++
			}
			if quota == 0 {
				n.shards[i].delivered = 0
				continue
			}
			wg.Add(1)
			go func(i, quota int) {
				defer wg.Done()
				n.shards[i].delivered = n.runWorker(i, quota)
			}(i, quota)
		}
		wg.Wait()
	}
	n.inRound = false
	// Serial coordinator tail: replay buffered broadcasts in worker
	// order (drop draws from the root rng), merge the stat deltas.
	total := 0
	for i := 0; i < w; i++ {
		sh := &n.shards[i]
		total += sh.delivered
		for j := range sh.outbox {
			b := &sh.outbox[j]
			n.fanOut(b.from, b.shard, b.epoch, b.payload)
			*b = bufMsg{}
		}
		sh.outbox = sh.outbox[:0]
		n.stats.add(sh.roundStats)
		sh.roundStats = Stats{}
	}
	return total
}

// QuiesceParallel runs parallel rounds of the given batch size until a
// round delivers nothing, returning the total delivered. Handlers may
// broadcast during rounds (a relay does); the replayed fan-out keeps the
// loop going until those are drained too.
func (n *SimNetwork) QuiesceParallel(batch int) int {
	total := 0
	for {
		d := n.StepParallel(batch)
		total += d
		if d == 0 {
			return total
		}
	}
}

// ScheduleFingerprint returns a hash pinning the delivery schedule so
// far: each shard's pick sequence is folded in pick order, and the
// per-shard chains are merged in shard order. Two runs with the same
// (seed, workers, batch sequence) produce identical fingerprints; any
// divergence in which envelope was delivered when, anywhere, changes
// the value. Maintained by both the sequential and the parallel
// steppers.
func (n *SimNetwork) ScheduleFingerprint() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := range n.shards {
		sh := &n.shards[i]
		h = fpMix(h, sh.fp, sh.picks)
	}
	return h
}
