package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// A workload is a seeded script: a flat list of operations that one
// generator goroutine plays, in order, against a three-replica cluster on
// the workload's driver. The script is the only thing the program under
// test receives, so the same seed gives the same inputs.

type opKind uint8

const (
	opUpdate    opKind = iota // handle h issues the update carrying arg
	opContains                // handle h asks whether arg is in the set
	opReadAll                 // handle h reads the whole state
	opSettle                  // barrier: everything issued so far is delivered everywhere
	opAwait                   // handle h repeats Contains(arg) until it is true
	opDeliver                 // simulated network only: up to n delivery steps
	opPartition               // simulated network only: cut {0} from {1,2}
	opHeal                    // simulated network only: remove the cut and repair
)

// Expected answers for opContains.
const (
	wantAny   int8 = -1
	wantFalse int8 = 0
	wantTrue  int8 = 1
)

type op struct {
	kind opKind
	h    uint8
	want int8 // opContains: the answer the model requires
	// opDeliver: n is the step budget. opReadAll: the result length must
	// lie in [n, m] (settled updates ≤ visible ≤ issued updates).
	n, m int32
	arg  string
}

const (
	objLog = "log"
	objSet = "set"
)

// Drivers: how the three replicas are built and connected.
const (
	drvLive = "live"
	drvSim  = "sim"
	drvWire = "wire"
)

type script struct {
	object string // objLog or objSet
	driver string // drvLive, drvSim or drvWire
	// preload is issued and settled during set-up; ops is the timed section.
	preload []op
	ops     []op
	// Final-state model: the sorted distinct keys (set) or the number of
	// lines each writer issued (log).
	wantSet   []string
	wantLines [3]int
}

func (s *script) count(ops []op, kind opKind) int {
	n := 0
	for i := range ops {
		if ops[i].kind == kind {
			n++
		}
	}
	return n
}

// updates is the number of updates the whole script issues.
func (s *script) updates() int {
	return s.count(s.preload, opUpdate) + s.count(s.ops, opUpdate)
}

// builder accumulates a script while tracking the model the expected
// answers are derived from: what has been issued, and what has been
// settled (delivered everywhere) so far.
type builder struct {
	s       script
	rng     *rand.Rand
	issued  int             // updates issued so far
	settled int             // of which delivered everywhere
	seq     [3]int          // log: next line sequence of each writer
	keys    map[string]int8 // set: key → handle that issued it
	pending []string        // set: keys issued since the last settle
	live    map[string]bool // set: keys delivered everywhere
}

func newBuilder(object, driver string, seed int64) *builder {
	return &builder{
		s:    script{object: object, driver: driver},
		rng:  rand.New(rand.NewSource(seed)),
		keys: map[string]int8{},
		live: map[string]bool{},
	}
}

func (b *builder) emit(o op) {
	b.s.ops = append(b.s.ops, o)
}

// line issues the next tagged log line of writer h. The tag w<id>-<seq>
// is what the process-order check parses; the seeded padding varies the
// payload size.
func (b *builder) line(h int) {
	pad := "abcdefghijklmnopqrstuvwxyz"[:b.rng.Intn(17)]
	b.emit(op{kind: opUpdate, h: uint8(h), arg: fmt.Sprintf("w%d-%d-%s", h, b.seq[h], pad)})
	b.seq[h]++
	b.issued++
}

func (b *builder) insert(h int, key string) {
	b.emit(op{kind: opUpdate, h: uint8(h), arg: key})
	b.keys[key] = int8(h)
	b.pending = append(b.pending, key)
	b.issued++
}

func (b *builder) settle() {
	b.emit(op{kind: opSettle})
	b.settled = b.issued
	for _, k := range b.pending {
		b.live[k] = true
	}
	b.pending = b.pending[:0]
}

// contains emits a membership query with the answer the model requires:
// a key nobody issued yet cannot be there, a key delivered everywhere (or
// issued through the asking handle) must be, anything else may go either
// way.
func (b *builder) contains(h int, key string) {
	want := wantAny
	if issuer, ok := b.keys[key]; !ok {
		want = wantFalse
	} else if b.live[key] || int(issuer) == h {
		want = wantTrue
	}
	b.emit(op{kind: opContains, h: uint8(h), want: want, arg: key})
}

func (b *builder) readAll(h int) {
	b.emit(op{kind: opReadAll, h: uint8(h), n: int32(b.settled), m: int32(b.issued)})
}

func (b *builder) finish() *script {
	b.s.wantLines = b.seq
	for k := range b.keys {
		b.s.wantSet = append(b.s.wantSet, k)
	}
	sort.Strings(b.s.wantSet)
	return &b.s
}

// Frozen full-size operation counts (scale 1). Calibrated so the timed
// section of one unit is about half a second on a 2-core box; see README.md before changing them: a resize
// is its own benchmark PR.
const (
	liveWriteRounds = 3000   // × (64 + 64) appends
	liveReadOps     = 25000  // Contains / Insert burst / Elements slots
	wireIngestOps   = 160000 // streamed inserts
	wireMixedOps    = 3200   // 3 Contains : 1 Insert
	simHealOps      = 40000  // appends across a partition
	burstLen        = 64
	liveReadBurst   = 8
	preloadKeys     = 4000
	zipfKeys        = 8000
)

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

type workload struct {
	name string
	why  string
	gen  func(seed int64, scale float64) *script
}

var workloads = []workload{
	{"live-write", "two-origin appends to a non-commutative log on the live transport: the write path and bounded late inserts", genLiveWrite},
	{"live-read", "Zipf membership reads beside occasional inserts on the live transport: replay engine and query cache", genLiveRead},
	{"wire-ingest", "one client streams inserts into three TCP daemons: client send, framing, per-peer queues; no late inserts", genWireIngest},
	{"wire-mixed", "request/response over TCP, 3 reads per insert, peer visibility awaited: what buffering tricks would cost", genWireMixed},
	{"sim-heal", "appends on both sides of a partition, then digest anti-entropy repair on the simulated network", genSimHeal},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// live-write: rounds of 64 appends on handle 0, 64 on handle 1, settle.
// No queries in the main section, so the engine and the query cache idle.
func genLiveWrite(seed int64, scale float64) *script {
	b := newBuilder(objLog, drvLive, seed)
	for r := scaled(liveWriteRounds, scale); r > 0; r-- {
		for h := 0; h < 2; h++ {
			for i := 0; i < burstLen; i++ {
				b.line(h)
			}
		}
		b.settle()
	}
	return b.finish()
}

// live-read: 4000 preloaded keys, then Contains on handle 0 with Zipf(1.2)
// keys; every 64th op a burst of 8 Inserts on handle 1 plus a settle;
// every 512th a whole-state Elements. One insert per write phase would be
// timed cache-cold after 63 scans, which this box cannot repeat (±40 %);
// a burst of eight leaves the hit ratio alone — handle 0 still takes one
// miss per write phase — and grows the set to about 7 000 keys.
func genLiveRead(seed int64, scale float64) *script {
	b := newBuilder(objSet, drvLive, seed)
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	next := 0
	for ; next < preloadKeys; next++ {
		b.insert(next%3, key(next))
	}
	b.settle()
	b.s.preload, b.s.ops = b.s.ops, nil
	zipf := rand.NewZipf(b.rng, 1.2, 1, zipfKeys-1)
	for i, n := 0, scaled(liveReadOps, scale); i < n; i++ {
		switch {
		case i%64 == 63:
			for k := 0; k < liveReadBurst; k++ {
				b.insert(1, key(next))
				next++
			}
			b.settle()
		case i%512 == 0 && i > 0:
			b.readAll(0)
		default:
			b.contains(0, key(int(zipf.Uint64())))
		}
	}
	b.settle()
	return b.finish()
}

// wire-ingest: one client streams inserts to node 0, then the cluster
// settles.
func genWireIngest(seed int64, scale float64) *script {
	b := newBuilder(objSet, drvWire, seed)
	tag := strconv.FormatInt(b.rng.Int63n(1<<20), 36)
	for i, n := 0, scaled(wireIngestOps, scale); i < n; i++ {
		b.insert(0, "w"+tag+"-"+strconv.Itoa(i))
	}
	b.settle()
	return b.finish()
}

// wire-mixed: client A on node 0 issues 3 Contains per Insert; after every
// 10th insert client B on node 1 waits until the key is visible there.
func genWireMixed(seed int64, scale float64) *script {
	b := newBuilder(objSet, drvWire, seed)
	var mine []string
	inserts := 0
	for i, n := 0, scaled(wireMixedOps, scale); i < n; i++ {
		if i%4 == 3 {
			k := "v" + strconv.Itoa(i)
			b.insert(0, k)
			mine = append(mine, k)
			if inserts++; inserts%10 == 0 {
				b.emit(op{kind: opAwait, h: 1, arg: k})
			}
			continue
		}
		if len(mine) > 0 && b.rng.Intn(2) == 0 {
			b.contains(0, mine[b.rng.Intn(len(mine))])
		} else {
			b.contains(0, "absent-"+strconv.Itoa(i))
		}
	}
	b.settle()
	return b.finish()
}

// sim-heal: cut {0} from {1,2}, append round-robin with a bounded delivery
// budget every 256 ops, then heal (digest anti-entropy) and settle.
func genSimHeal(seed int64, scale float64) *script {
	b := newBuilder(objLog, drvSim, seed)
	b.emit(op{kind: opPartition})
	for i, n := 0, scaled(simHealOps, scale); i < n; i++ {
		b.line(i % 3)
		if i%256 == 255 {
			b.emit(op{kind: opDeliver, n: 512})
		}
	}
	b.emit(op{kind: opHeal})
	b.settle()
	return b.finish()
}

// checkLines verifies one replica's final log against the model: every
// writer's lines present, and in issue order (the process-order half of
// the strong-update-consistency witness). It returns the number of
// violations.
func (s *script) checkLines(lines []string) int {
	bad := 0
	var next [3]int
	for _, l := range lines {
		id, seq, ok := parseTag(l)
		if !ok || id < 0 || id >= len(next) || seq != next[id] {
			bad++
			continue
		}
		next[id]++
	}
	for id := range next {
		if d := s.wantLines[id] - next[id]; d > 0 {
			bad += d
		}
	}
	return bad
}

func parseTag(l string) (id, seq int, ok bool) {
	if !strings.HasPrefix(l, "w") {
		return 0, 0, false
	}
	parts := strings.SplitN(l[1:], "-", 3)
	if len(parts) < 2 {
		return 0, 0, false
	}
	id, err1 := strconv.Atoi(parts[0])
	seq, err2 := strconv.Atoi(parts[1])
	return id, seq, err1 == nil && err2 == nil
}

// checkSet verifies one replica's final sorted element list against the
// model, returning the number of missing or unexpected keys.
func (s *script) checkSet(elems []string) int {
	bad, i, j := 0, 0, 0
	for i < len(elems) && j < len(s.wantSet) {
		switch {
		case elems[i] == s.wantSet[j]:
			i++
			j++
		case elems[i] < s.wantSet[j]:
			bad++
			i++
		default:
			bad++
			j++
		}
	}
	return bad + len(elems) - i + len(s.wantSet) - j
}

// checkFinal dispatches on the object.
func (s *script) checkFinal(state []string) int {
	if s.object == objLog {
		return s.checkLines(state)
	}
	return s.checkSet(state)
}
