package main

import "time"

// calibrator tracks how fast the machine runs while a workload runs. On a
// shared machine the same code runs 10-40% slower for minutes at a time
// while other tenants load the cores, caches and memory; timing a fixed
// reference kernel beside the workload's own batches and scaling by it
// removes most of that drift. On the machine in baseline.json it cut the
// run-to-run spread of the workloads' host times to between a quarter and
// a half of the raw spread.
type calibrator struct {
	ref  refSwitch
	secs float64 // total sampled kernel time
	n    int     // samples taken
}

const (
	// calCycles is the kernel length of one sample, about 2.5 ms.
	calCycles = 20_000
	// calRefSecs is one sample's typical time on the machine in
	// baseline.json. Host times are reported in seconds at that speed.
	calRefSecs = 0.0025
)

// sample times the kernel n times.
func (c *calibrator) sample(n int) {
	if c.ref.x == 0 {
		c.ref.init()
	}
	for ; n > 0; n-- {
		start := time.Now()
		for i := 0; i < calCycles; i++ {
			c.ref.cycle()
		}
		c.secs += time.Since(start).Seconds()
		c.n++
	}
}

// scale converts host seconds measured beside the samples into seconds
// at the reference speed.
func (c *calibrator) scale(secs float64) float64 {
	if c.n == 0 {
		return secs
	}
	return secs * calRefSecs * float64(c.n) / c.secs
}

// refSwitch is the calibration kernel: a self-contained 4x4 DAMQ switch —
// per-input slot pools threaded as linked lists, longest-queue
// arbitration, Bernoulli arrivals at load 0.9 — the same kind of work the
// simulators' inner loops do, so it slows down when they do. It calls no
// code outside this package, so no change to the simulators can move it.
type refSwitch struct {
	next       [4][4]int8 // per input: slot -> next slot in its list, -1 at the end
	head, tail [4][4]int8 // per input and output queue, -1 when empty
	qlen       [4][4]int8
	free       [4]int8 // per input: first free slot, -1 when full
	rr         int
	x          uint64 // xorshift state; 0 until init
	delivered  int
}

// init empties the switch: every slot on its input's free list.
func (s *refSwitch) init() {
	for in := range s.next {
		for slot := range s.next[in] {
			s.next[in][slot] = int8(slot + 1)
		}
		s.next[in][3] = -1
		s.free[in] = 0
		s.head[in] = [4]int8{-1, -1, -1, -1}
		s.tail[in] = [4]int8{-1, -1, -1, -1}
	}
	s.x = 88172645463325252
}

// cycle runs one switch cycle: departures on the pre-arrival state, then
// arrivals, dropping a packet whose input buffer is full.
func (s *refSwitch) cycle() {
	var granted [4]bool
	for k := 0; k < 4; k++ {
		out := (s.rr + k) & 3
		best, bestLen := -1, int8(0)
		for in := 0; in < 4; in++ {
			if !granted[in] && s.qlen[in][out] > bestLen {
				best, bestLen = in, s.qlen[in][out]
			}
		}
		if best < 0 {
			continue
		}
		granted[best] = true
		slot := s.head[best][out]
		s.head[best][out] = s.next[best][slot]
		if s.head[best][out] < 0 {
			s.tail[best][out] = -1
		}
		s.qlen[best][out]--
		s.next[best][slot] = s.free[best]
		s.free[best] = slot
		s.delivered++
	}
	s.rr = (s.rr + 1) & 3
	for in := 0; in < 4; in++ {
		s.x ^= s.x << 13
		s.x ^= s.x >> 7
		s.x ^= s.x << 17
		slot := s.free[in]
		if s.x%10 == 9 || slot < 0 {
			continue
		}
		out := (s.x >> 8) & 3
		s.free[in] = s.next[in][slot]
		s.next[in][slot] = -1
		if t := s.tail[in][out]; t < 0 {
			s.head[in][out] = slot
		} else {
			s.next[in][t] = slot
		}
		s.tail[in][out] = slot
		s.qlen[in][out]++
	}
}
