package chaos

// The scenario DSL: a declarative description of a large, messy run —
// feasible-action fault schedules, replica churn, flash crowds,
// zipf-skewed key popularity, regional partitions that heal piecewise,
// clock-skewed sessions, lossy-link windows, a mid-run resize —
// compiled into a deterministic timeline that Run executes. The same
// Config always compiles to the same timeline (events, issuing replica
// per slot, key per slot): the config plus a seed IS the run.

import (
	"fmt"
	"math/rand"
	"sort"
)

// ZipfSpec skews key popularity: keys are drawn zipf-distributed over
// the key space instead of uniformly, so a few keys absorb most of the
// update traffic. S is the exponent (must be > 1; larger is more
// skewed), V the value offset (>= 1). The limit case of one scorching
// key is S large or Keys == 1.
type ZipfSpec struct {
	S, V float64
}

// ChurnSpec injects replica churn: Events crash/recover events are
// placed uniformly over the timeline. A crashed replica stops
// receiving and issues nothing until it recovers (and then pulls what
// it missed by anti-entropy). MaxDown bounds how many replicas may be
// down at once; 0 means no bound — the whole cluster may be down
// simultaneously, the zero-replica window, and the run must still
// converge after repair.
type ChurnSpec struct {
	Events  int
	MaxDown int
}

// FlashSpec injects flash crowds: Crowds windows, each covering Width
// of the timeline, during which a Focus fraction of the replicas
// (a contiguous block, fresh per crowd) issues updates at Boost times
// its base rate.
type FlashSpec struct {
	Crowds int
	Width  float64 // fraction of the timeline per crowd (default 0.1)
	Boost  float64 // rate multiplier inside the crowd (default 8)
	Focus  float64 // fraction of replicas in the crowd (default 0.25)
}

// RegionSpec injects regional partitions: the cluster is split into
// Regions contiguous regions, Cycles times over the timeline. With
// PartialHeals each cycle heals piecewise — regions merge one boundary
// at a time before the full heal — so the run exercises the
// intermediate topologies, not just split and healed.
type RegionSpec struct {
	Regions      int
	Cycles       int
	PartialHeals bool
}

// SkewSpec models clock-skewed sessions as issue-rate skew: replicas
// fall into eight rate classes, the fastest issuing (1 + MaxSkew)
// times as often as the slowest. Under Algorithm 1 a replica's Lamport
// clock advances with the updates it issues and delivers, so a faster
// session IS a replica whose logical clock runs ahead — the timestamp
// spread the paper's total order has to absorb.
type SkewSpec struct {
	MaxSkew float64
}

// FaultSpec opens lossy-link windows: Windows times, a window covering
// Width of the timeline during which every link drops and duplicates
// with the given probabilities. Windows may overlap partitions and
// heals — a heal during an open fault window is the adversarial case
// the final repair has to cover.
type FaultSpec struct {
	Windows   int
	Width     float64 // fraction of the timeline per window (default 0.15)
	Drop, Dup float64 // default faultDrop / faultDup
}

// EventKind is a timeline event type.
type EventKind int

// Timeline event kinds, one per cluster operation Run performs.
const (
	// EvCrash/EvRecover crash a replica and bring it back (it pulls
	// what it missed by anti-entropy).
	EvCrash EventKind = iota
	EvRecover
	// EvPartition splits the cluster into the event's groups (the
	// processes no group names form one more); EvPartialHeal
	// re-partitions with one boundary merged; EvHeal restores full
	// connectivity.
	EvPartition
	EvPartialHeal
	EvHeal
	// EvFaultOpen/EvFaultClose toggle the every-link drop/dup window.
	EvFaultOpen
	EvFaultClose
	// EvResize re-partitions the key space across the event's shard
	// count, with the backlog in flight.
	EvResize
)

// Event is one compiled timeline event, fired before the update slot
// it is attached to.
type Event struct {
	Slot int
	Kind EventKind
	// Proc is the replica for EvCrash/EvRecover.
	Proc int
	// Groups is the topology for EvPartition/EvPartialHeal.
	Groups [][]int
	// Drop/Dup are the probabilities for EvFaultOpen.
	Drop, Dup float64
	// Shards is the new shard count for EvResize.
	Shards int
}

// String renders the event for traces.
func (e Event) String() string {
	var what string
	switch e.Kind {
	case EvCrash:
		what = fmt.Sprintf("crash p%d", e.Proc)
	case EvRecover:
		what = fmt.Sprintf("recover p%d (anti-entropy pull from reachable peers)", e.Proc)
	case EvPartition:
		what = fmt.Sprintf("partition %v", e.Groups)
	case EvPartialHeal:
		what = fmt.Sprintf("partial heal to %v", e.Groups)
	case EvHeal:
		what = "heal (automatic digest exchange)"
	case EvFaultOpen:
		what = fmt.Sprintf("fault window open: drop=%.2f dup=%.2f on every link", e.Drop, e.Dup)
	case EvFaultClose:
		what = "fault window closed"
	default:
		what = fmt.Sprintf("resize to %d shards (backlog in flight)", e.Shards)
	}
	return fmt.Sprintf("slot %4d: %s", e.Slot, what)
}

// Timeline is a compiled config: the events in slot order and, for
// every update slot, the issuing replica and the key index it updates.
// A timeline is a pure function of its config — same config, same
// timeline.
type Timeline struct {
	Config Config
	Events []Event
	Issuer []int
	Key    []int
}

// skewClasses is the number of issue-rate classes under SkewSpec.
const skewClasses = 8

// rateOf returns replica i's base issue rate under the config's skew.
func (s *Config) rateOf(i int) float64 {
	if s.Skew == nil || s.Skew.MaxSkew <= 0 {
		return 1
	}
	return 1 + s.Skew.MaxSkew*float64(i%skewClasses)/float64(skewClasses-1)
}

// normalize fills in the documented defaults.
func (s Config) normalize() Config {
	if s.N <= 0 {
		s.N = 4
	}
	if s.Ops <= 0 {
		s.Ops = 400
	}
	if s.Keys <= 0 {
		s.Keys = 16
	}
	if s.Flash != nil {
		f := *s.Flash
		if f.Width <= 0 {
			f.Width = 0.1
		}
		if f.Boost <= 0 {
			f.Boost = 8
		}
		if f.Focus <= 0 {
			f.Focus = 0.25
		}
		s.Flash = &f
	}
	if s.Faults != nil {
		f := *s.Faults
		if f.Width <= 0 {
			f.Width = 0.15
		}
		if f.Drop == 0 && f.Dup == 0 {
			f.Drop, f.Dup = faultDrop, faultDup
		}
		s.Faults = &f
	}
	if s.Regions != nil {
		r := *s.Regions
		if r.Regions < 2 {
			r.Regions = 3
		}
		if r.Regions > s.N {
			r.Regions = s.N
		}
		if r.Cycles <= 0 {
			r.Cycles = 1
		}
		s.Regions = &r
	}
	return s
}

// regionGroups splits [0, n) into k contiguous regions with the first
// `merged` boundaries removed (merged == 0 is the full split, k-1 is
// one group).
func regionGroups(n, k, merged int) [][]int {
	bounds := []int{0}
	for r := 1; r < k; r++ {
		bounds = append(bounds, r*n/k)
	}
	bounds = append(bounds, n)
	// Remove the first `merged` interior boundaries.
	interior := bounds[1 : len(bounds)-1]
	kept := interior[merged:]
	var groups [][]int
	lo := 0
	for _, b := range append(kept, n) {
		g := make([]int, 0, b-lo)
		for p := lo; p < b; p++ {
			g = append(g, p)
		}
		groups = append(groups, g)
		lo = b
	}
	return groups
}

// faultDrop and faultDup are the per-link probabilities of a fault
// window that names none: FaultSpec's default, and every window the
// feasible-action schedule (Config.Events) opens.
const faultDrop, faultDup = 0.2, 0.2

// slotsFor draws k event slots uniformly over [0, ops), in slot order.
func slotsFor(rng *rand.Rand, k, ops int) []int {
	slots := make([]int, k)
	for i := range slots {
		slots[i] = rng.Intn(ops)
	}
	sort.Ints(slots)
	return slots
}

// pickProc draws uniformly among the processes below n whose down
// flag equals want: a live one to crash, a down one to recover.
func pickProc(rng *rand.Rand, n int, down map[int]bool, want bool) int {
	var ps []int
	for p := 0; p < n; p++ {
		if down[p] == want {
			ps = append(ps, p)
		}
	}
	return ps[rng.Intn(len(ps))]
}

// Compile turns the config into its deterministic timeline. Three
// independent rng streams — events, issuers, keys — keep each
// dimension stable when another's sub-spec changes how much randomness
// it consumes.
func (s Config) Compile() Timeline {
	s = s.normalize()
	evRng := rand.New(rand.NewSource(s.Seed ^ 0x5c4ed0))
	workRng := rand.New(rand.NewSource(s.Seed ^ 0x0b5e55))
	keyRng := rand.New(rand.NewSource(s.Seed ^ 0x7e1ead))
	tl := Timeline{Config: s}

	// Feasible-action faults: each event picks uniformly among the
	// actions feasible at its point of the walk — crash a live replica
	// (keeping one alive), recover a crashed one, open a random
	// two-sided partition or heal it, open or close a fault window.
	if s.Events > 0 {
		down := map[int]bool{}
		partitioned, faulted := false, false
		for _, slot := range slotsFor(evRng, s.Events, s.Ops) {
			var actions []EventKind
			if len(down) < s.N-1 {
				actions = append(actions, EvCrash)
			}
			if len(down) > 0 {
				actions = append(actions, EvRecover)
			}
			if partitioned {
				actions = append(actions, EvHeal)
			} else {
				actions = append(actions, EvPartition)
			}
			if faulted {
				actions = append(actions, EvFaultClose)
			} else {
				actions = append(actions, EvFaultOpen)
			}
			ev := Event{Slot: slot, Kind: actions[evRng.Intn(len(actions))]}
			switch ev.Kind {
			case EvCrash:
				ev.Proc = pickProc(evRng, s.N, down, false)
				down[ev.Proc] = true
			case EvRecover:
				ev.Proc = pickProc(evRng, s.N, down, true)
				delete(down, ev.Proc)
			case EvPartition:
				var side []int
				for p := 0; p < s.N; p++ {
					if evRng.Intn(2) == 0 {
						side = append(side, p)
					}
				}
				if len(side) == 0 || len(side) == s.N {
					side = []int{evRng.Intn(s.N)}
				}
				ev.Groups = [][]int{side}
				partitioned = true
			case EvHeal:
				partitioned = false
			case EvFaultOpen:
				ev.Drop, ev.Dup = faultDrop, faultDup
				faulted = true
			case EvFaultClose:
				faulted = false
			}
			tl.Events = append(tl.Events, ev)
		}
	}

	// Churn: walk the chosen slots keeping the down-set feasible.
	if c := s.Churn; c != nil && c.Events > 0 {
		maxDown := c.MaxDown
		if maxDown <= 0 || maxDown > s.N {
			maxDown = s.N
		}
		down := map[int]bool{}
		for _, slot := range slotsFor(evRng, c.Events, s.Ops) {
			if len(down) == 0 || (len(down) < maxDown && evRng.Intn(2) == 0) {
				p := pickProc(evRng, s.N, down, false)
				down[p] = true
				tl.Events = append(tl.Events, Event{Slot: slot, Kind: EvCrash, Proc: p})
			} else {
				p := pickProc(evRng, s.N, down, true)
				delete(down, p)
				tl.Events = append(tl.Events, Event{Slot: slot, Kind: EvRecover, Proc: p})
			}
		}
		// Rejoin everyone still down, before the end of the timeline,
		// so final repair starts from a fully-live cluster.
		for p := 0; p < s.N; p++ {
			if down[p] {
				tl.Events = append(tl.Events, Event{Slot: s.Ops - 1, Kind: EvRecover, Proc: p})
			}
		}
	}

	// Regional partitions, each cycle: split, optional piecewise
	// merges, full heal.
	if r := s.Regions; r != nil {
		span := s.Ops / r.Cycles
		for cyc := 0; cyc < r.Cycles; cyc++ {
			lo := cyc * span
			start := lo + evRng.Intn(span/4+1)
			dur := span / 2
			tl.Events = append(tl.Events, Event{Slot: start, Kind: EvPartition, Groups: regionGroups(s.N, r.Regions, 0)})
			if r.PartialHeals && r.Regions > 2 {
				for m := 1; m < r.Regions-1; m++ {
					at := start + m*dur/r.Regions
					tl.Events = append(tl.Events, Event{Slot: at, Kind: EvPartialHeal, Groups: regionGroups(s.N, r.Regions, m)})
				}
			}
			tl.Events = append(tl.Events, Event{Slot: start + dur, Kind: EvHeal})
		}
	}

	// Fault windows.
	if f := s.Faults; f != nil && f.Windows > 0 {
		width := int(f.Width * float64(s.Ops))
		if width < 1 {
			width = 1
		}
		for w := 0; w < f.Windows; w++ {
			start := evRng.Intn(s.Ops)
			end := start + width
			if end > s.Ops-1 {
				end = s.Ops - 1
			}
			tl.Events = append(tl.Events, Event{Slot: start, Kind: EvFaultOpen, Drop: f.Drop, Dup: f.Dup})
			tl.Events = append(tl.Events, Event{Slot: end, Kind: EvFaultClose})
		}
	}

	// The resize fires after every other event of its slot.
	if s.Resize > 0 {
		tl.Events = append(tl.Events, Event{Slot: s.Ops / 2, Kind: EvResize, Shards: s.Resize})
	}

	sort.SliceStable(tl.Events, func(i, j int) bool { return tl.Events[i].Slot < tl.Events[j].Slot })

	// Flash-crowd windows, precomputed per slot: which crowd (if any)
	// covers it.
	type crowd struct {
		from, to int // slot range
		flo, fhi int // focus replica range
		pFlash   float64
	}
	var crowds []crowd
	if f := s.Flash; f != nil && f.Crowds > 0 {
		width := int(f.Width * float64(s.Ops))
		if width < 1 {
			width = 1
		}
		focus := int(f.Focus * float64(s.N))
		if focus < 1 {
			focus = 1
		}
		if focus > s.N {
			focus = s.N
		}
		for i := 0; i < f.Crowds; i++ {
			start := evRng.Intn(s.Ops)
			flo := 0
			if s.N > focus {
				flo = evRng.Intn(s.N - focus + 1)
			}
			// The crowd's share of the issue rate: focus replicas at
			// Boost times base rate versus the rest at base rate.
			pf := f.Boost * float64(focus) / (f.Boost*float64(focus) + float64(s.N-focus))
			crowds = append(crowds, crowd{from: start, to: start + width, flo: flo, fhi: flo + focus, pFlash: pf})
		}
	}

	// Per-slot issuers: skew-class weighted sampling, overridden by an
	// active flash crowd with its crowd-share probability.
	classCount := make([]int, skewClasses)
	classW := make([]float64, skewClasses)
	var totalW float64
	for c := 0; c < skewClasses; c++ {
		classCount[c] = (s.N - c + skewClasses - 1) / skewClasses
		if c < s.N {
			classW[c] = float64(classCount[c]) * s.rateOf(c)
			totalW += classW[c]
		}
	}
	pickSkewed := func() int {
		x := workRng.Float64() * totalW
		for c := 0; c < skewClasses; c++ {
			if x < classW[c] || c == skewClasses-1 {
				if classCount[c] == 0 {
					break
				}
				return c + skewClasses*workRng.Intn(classCount[c])
			}
			x -= classW[c]
		}
		return workRng.Intn(s.N)
	}
	tl.Issuer = make([]int, s.Ops)
	for slot := 0; slot < s.Ops; slot++ {
		issuer := -1
		for _, cr := range crowds {
			if slot >= cr.from && slot < cr.to && workRng.Float64() < cr.pFlash {
				issuer = cr.flo + workRng.Intn(cr.fhi-cr.flo)
				break
			}
		}
		if issuer < 0 {
			issuer = pickSkewed()
		}
		tl.Issuer[slot] = issuer
	}

	// Per-slot keys: zipf-skewed or uniform over the key space.
	tl.Key = make([]int, s.Ops)
	if z := s.Zipf; z != nil && s.Keys > 1 {
		sExp, v := z.S, z.V
		if sExp <= 1 {
			sExp = 1.5
		}
		if v < 1 {
			v = 1
		}
		zipf := rand.NewZipf(keyRng, sExp, v, uint64(s.Keys-1))
		for slot := range tl.Key {
			tl.Key[slot] = int(zipf.Uint64())
		}
	} else {
		for slot := range tl.Key {
			tl.Key[slot] = keyRng.Intn(s.Keys)
		}
	}
	return tl
}

// Presets returns the named scenario library `ucsim -scenario` and the
// tests draw from. A preset names no object and leaves N/Ops/Seed to
// the caller; zero values take the defaults.
func Presets() map[string]Config {
	return map[string]Config{
		"churn": {
			Churn: &ChurnSpec{Events: 12},
		},
		"flash": {
			Flash: &FlashSpec{Crowds: 3, Width: 0.15, Boost: 10, Focus: 0.25},
		},
		"zipf-hot": {
			Zipf: &ZipfSpec{S: 3.0, V: 1},
		},
		"regions": {
			Regions: &RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true},
		},
		"skew": {
			Skew: &SkewSpec{MaxSkew: 4},
		},
		"mixed": {
			Churn:   &ChurnSpec{Events: 8},
			Flash:   &FlashSpec{Crowds: 2, Width: 0.1, Boost: 8, Focus: 0.25},
			Zipf:    &ZipfSpec{S: 1.8, V: 2},
			Regions: &RegionSpec{Regions: 3, Cycles: 1, PartialHeals: true},
			Skew:    &SkewSpec{MaxSkew: 2},
			Faults:  &FaultSpec{Windows: 2, Width: 0.1, Drop: 0.15, Dup: 0.15},
		},
	}
}
