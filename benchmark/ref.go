package main

import (
	"slices"
	"time"
)

// The box ucperf runs on changes speed: measured here, every time metric
// of every workload drifts together by 20–40 % for minutes at a stretch
// (README.md, "Reference speed"). So each unit is preceded by a fixed piece
// of reference work that touches none of the program under test, and a
// run's time metrics are scaled by how long that work took against
// refNominalNs.

// refNominalNs is how long the reference work takes on the box the frozen
// op counts were sized on, in a quiet stretch. Reported times are those of
// a box that does the reference work in exactly this long.
const refNominalNs = 11e6

// refWork is the reference work: four rounds of copying 256 KiB, sorting
// half of it and walking a random cycle through 128 KiB. It allocates
// nothing.
type refWork struct {
	words, scratch []uint64
	next           []uint32
}

func newRefWork() *refWork {
	const n = 1 << 15
	r := &refWork{words: make([]uint64, n), scratch: make([]uint64, n), next: make([]uint32, n)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range r.words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.words[i] = x
	}
	// next is one cycle through every slot, in pseudo-random order.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.words[i] % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		r.next[perm[i]] = perm[(i+1)%n]
	}
	return r
}

func (r *refWork) run() uint64 {
	var acc uint64
	for round := 0; round < 4; round++ {
		copy(r.scratch, r.words)
		slices.Sort(r.scratch[:len(r.scratch)/2])
		at := uint32(round)
		for i := 0; i < 2*len(r.next); i++ {
			at = r.next[at]
		}
		acc += r.scratch[round] + uint64(at)
	}
	return acc
}

var refSink uint64 // keeps the reference work's result alive

// refPair measures the reference work: once on one goroutine, then once on
// two goroutines at the same time, which is how the live and wire workloads
// load the box. Both count, so the measure is their sum.
type refPair struct{ a, b *refWork }

func newRefPair() refPair { return refPair{newRefWork(), newRefWork()} }

func (p refPair) once() float64 {
	t0 := time.Now()
	refSink += p.a.run()
	done := make(chan uint64)
	go func() { done <- p.b.run() }()
	refSink += p.a.run()
	refSink += <-done
	return float64(time.Since(t0))
}

// measure is the quickest of three goes: a hiccup during one of them says
// nothing about the box's speed.
func (p refPair) measure() float64 {
	return min(p.once(), p.once(), p.once())
}

// speedExponent says how a metric scales with the box's speed: a time
// grows with the reference time (1), a rate shrinks (-1), a count does
// neither (0).
func speedExponent(unit string) int {
	switch unit {
	case "s", "ms", "us", "ns":
		return 1
	case "1/s":
		return -1
	}
	return 0
}
