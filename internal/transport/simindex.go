package transport

// This file is SimNetwork's eligible-envelope index. The adversary's
// pick is uniform among the eligible in-flight envelopes, in ascending
// pending-array order; the seed therefore fixes the whole delivery
// schedule, and every recorded experiment relies on that. The
// index reproduces the historical scan-based pick bit for bit — same
// rng draws, same chosen envelope — while making the pick cost
// independent of the backlog:
//
//   - each envelope carries its eligibility bit, maintained
//     incrementally (computed on enqueue, cleared on delivery,
//     promoted on FIFO link advance, refreshed on crash/partition);
//   - a Fenwick tree over pending positions turns "the k-th eligible
//     envelope in array order" — exactly what the scan used to
//     produce — into an O(log pending) order-statistics query;
//   - per-link queues (FIFO mode only) hold each link's undelivered
//     envelopes in sequence order, so advancing nextSeq promotes the
//     link's next envelope in O(1) instead of rescanning;
//   - in the unrestricted regime (no FIFO, no crash, no partition)
//     every pending envelope is eligible, the k-th eligible IS
//     pending[k], and the pick is O(1) without touching the tree.
//
// Structural fault events repair only what they break:
//
//   - Crash(id) compacts the backlog in order, clears id's N inbound
//     queues, and re-points the stored positions of the survivors
//     through their own lpos back-pointers — no re-sort, no scan of the other N²−N links (historically a
//     crash rebuilt and re-sorted every link's queue);
//   - CrashPartialBroadcast additionally filters id's N outbound
//     queues through the compaction remap, preserving order;
//   - Partition/Heal move no envelopes and touch no queues at all;
//   - every such event ends in refreshEligibility, an O(pending)
//     recompute of the bits and the tree (the regime flags make
//     eligibility non-local, so the bits genuinely need the sweep).

// fenwick is a binary indexed tree of 0/1 eligibility marks over
// pending positions: add flips a mark, selectK finds the position of
// the (k+1)-th set mark in ascending order. cap is a power of two so
// selectK can descend the implicit tree directly.
type fenwick struct {
	tree []int // 1-based; tree[i] sums the 2^k block ending at i
	cap  int
}

// add applies delta at 0-based position i.
func (f *fenwick) add(i, delta int) {
	for j := i + 1; j <= f.cap; j += j & -j {
		f.tree[j] += delta
	}
}

// selectK returns the 0-based position of the (k+1)-th set mark.
// Callers guarantee k is below the number of set marks.
func (f *fenwick) selectK(k int) int {
	pos, rem := 0, k+1
	for b := f.cap; b > 0; b >>= 1 {
		if next := pos + b; next <= f.cap && f.tree[next] < rem {
			rem -= f.tree[next]
			pos = next
		}
	}
	// pos is the largest position with fewer than rem marks in its
	// prefix, i.e. (1-based) pos+1 holds the k-th mark.
	return pos
}

// rebuild resizes to hold n positions and reconstructs the tree from
// the envelopes' eligibility bits in O(n).
func (f *fenwick) rebuild(pending []envelope) {
	n := len(pending)
	c := 1
	for c < n {
		c <<= 1
	}
	if c > f.cap || f.cap > 4*c {
		f.cap = c
		f.tree = make([]int, c+1)
	} else {
		clear(f.tree)
	}
	for i := range pending {
		if pending[i].elig {
			f.tree[i+1]++
		}
	}
	for i := 1; i <= f.cap; i++ {
		if j := i + (i & -i); j <= f.cap {
			f.tree[j] += f.tree[i]
		}
	}
}

// linkQueue holds one link's undelivered envelopes (as positions into
// the pending array) in sequence order; q[head:] is
// live. Only the head can be FIFO-eligible, so advancing the link pops
// the head and promotes the new one.
type linkQueue struct {
	q    []int
	head int
}

func (lq *linkQueue) push(p int) int {
	lq.q = append(lq.q, p)
	return len(lq.q) - 1
}

func (lq *linkQueue) peek() (int, bool) {
	if lq.head == len(lq.q) {
		return 0, false
	}
	return lq.q[lq.head], true
}

// uniform reports the unrestricted regime: every pending envelope is
// eligible by construction, so the adversary can pick by position
// without consulting the index (and enqueue/remove skip maintaining
// it — refreshEligibility reconstructs on the transitions out).
func (n *SimNetwork) uniform() bool {
	return !n.opts.FIFO && !n.anyCrashed && !n.partitioned
}

// enqueue appends an in-flight envelope to the backlog, maintaining
// the eligibility index.
func (n *SimNetwork) enqueue(e envelope) {
	p := len(n.pending)
	if n.uniform() {
		e.elig = true
		n.pending = append(n.pending, e)
		n.eligCount++
		return
	}
	e.elig = n.eligible(&e)
	if n.opts.FIFO {
		// Per-link sequence numbers only grow, so pushing keeps the
		// queue seq-sorted.
		e.lpos = n.linkQ[n.link(e.from, e.to)].push(p)
	}
	n.pending = append(n.pending, e)
	if len(n.pending) > n.idx.cap {
		n.idx.rebuild(n.pending)
		if e.elig {
			n.eligCount++
		}
		return
	}
	if e.elig {
		n.idx.add(p, 1)
		n.eligCount++
	}
}

// removeAt deletes pending[at] (which must be eligible) from the
// backlog and index by an O(1) swap with the last element, and
// in FIFO mode advances the link: nextSeq moves past the removed
// envelope and the link's next envelope, if now deliverable, is
// promoted into the eligible set.
func (n *SimNetwork) removeAt(at int) envelope {
	e := n.pending[at]
	n.eligCount--
	uniform := n.uniform()
	if !uniform {
		n.idx.add(at, -1)
	}
	if n.opts.FIFO {
		lq := &n.linkQ[n.link(e.from, e.to)]
		if h, ok := lq.peek(); !ok || h != at {
			panic("transport: eligible index out of sync with pending (FIFO head)")
		}
		lq.head++
		if lq.head == len(lq.q) {
			lq.q, lq.head = lq.q[:0], 0
		} else if lq.head >= 64 && lq.head*2 >= len(lq.q) {
			// Reclaim the consumed prefix once it dominates; lpos is
			// absolute, so the shifted survivors are re-pointed.
			live := copy(lq.q, lq.q[lq.head:])
			lq.q = lq.q[:live]
			lq.head = 0
			for pos, p := range lq.q {
				n.pending[p].lpos = pos
			}
		}
	}
	last := len(n.pending) - 1
	if at != last {
		moved := n.pending[last]
		n.pending[at] = moved
		if !uniform && moved.elig {
			n.idx.add(last, -1)
			n.idx.add(at, 1)
		}
		if n.opts.FIFO {
			n.linkQ[n.link(moved.from, moved.to)].q[moved.lpos] = at
		}
	}
	n.pending[last] = envelope{}
	n.pending = n.pending[:last]
	if n.opts.FIFO {
		link := n.link(e.from, e.to)
		n.nextSeq[link] = e.seq
		if h, ok := n.linkQ[link].peek(); ok {
			he := &n.pending[h]
			if !he.elig && n.eligible(he) {
				he.elig = true
				n.idx.add(h, 1)
				n.eligCount++
			}
		}
	}
	return e
}

// refreshEligibility recomputes every eligibility bit, the count and
// the Fenwick tree from the pending array. It runs after the
// structural events that change eligibility wholesale — crash,
// recover, partition, heal. It does NOT touch the FIFO link queues:
// their content and order are maintained by the event-specific repair
// (dropInbound, dropOutboundPartial, repairLinks), so no per-link scan
// or re-sort happens here.
func (n *SimNetwork) refreshEligibility() {
	n.eligCount = 0
	for i := range n.pending {
		e := &n.pending[i]
		e.elig = n.eligible(e)
		if e.elig {
			n.eligCount++
		}
	}
	if !n.uniform() {
		n.idx.rebuild(n.pending)
	}
	// In the unrestricted regime the tree is not consulted; the next
	// transition out refreshes it.
	n.idxRepair.Refreshes++
}

// dropInbound discards every in-flight envelope addressed to id. The
// pending array is compacted in place, preserving order — so the surviving envelopes' queue order
// and lpos back-pointers stay valid, and only the positions stored in
// the queues need re-pointing (reseatQueues).
func (n *SimNetwork) dropInbound(id int) {
	keep := n.pending[:0]
	for _, e := range n.pending {
		if e.to == id {
			n.stats.DroppedCrash++
			continue
		}
		keep = append(keep, e)
	}
	if len(keep) == len(n.pending) {
		return // nothing dropped, nothing moved
	}
	clearTail(n.pending, len(keep))
	n.pending = keep
	if n.opts.FIFO {
		n.reseatQueues()
	}
}

// dropOutboundPartial discards each of id's in-flight envelopes with
// probability 1−keepProb (draws from the adversary rng, ascending
// position order), compacting in place and filtering
// id's outbound queues through the old→new position remap — order
// preserved, no re-sort.
func (n *SimNetwork) dropOutboundPartial(id int, keepProb float64) {
	var remap []int
	if n.opts.FIFO {
		remap = make([]int, len(n.pending))
	}
	keep := n.pending[:0]
	dropped := 0
	for i := range n.pending {
		e := n.pending[i]
		if e.from == id && n.rng.Float64() >= keepProb {
			n.stats.DroppedCrash++
			if remap != nil {
				remap[i] = -1
			}
			dropped++
			continue
		}
		if remap != nil {
			remap[i] = len(keep)
		}
		keep = append(keep, e)
	}
	if dropped == 0 {
		return
	}
	clearTail(n.pending, len(keep))
	n.pending = keep
	if !n.opts.FIFO {
		return
	}
	// Filter id's outbound queues: entries map through remap (dropping
	// −1), stay in seq order, and get fresh lpos back-pointers.
	for to := 0; to < n.opts.N; to++ {
		if to == id {
			continue
		}
		lq := &n.linkQ[n.link(id, to)]
		if lq.head == len(lq.q) {
			continue
		}
		out := lq.q[:0]
		for _, oldPos := range lq.q[lq.head:] {
			np := remap[oldPos]
			if np < 0 {
				continue
			}
			n.pending[np].lpos = len(out)
			out = append(out, np)
		}
		lq.q, lq.head = out, 0
		n.idxRepair.LinksRepaired++
	}
	// Every other queue kept its content and order; re-point stored
	// positions via the survivors' (unchanged) lpos back-pointers.
	n.reseatQueues()
}

// reseatQueues re-points every live envelope's queue slot at its
// current pending position. It is valid after any order-preserving
// compaction: queue content, order and lpos values are unchanged, only
// the positions the queues store went stale.
func (n *SimNetwork) reseatQueues() {
	for pos := range n.pending {
		e := &n.pending[pos]
		n.linkQ[n.link(e.from, e.to)].q[e.lpos] = pos
	}
}
