package buffer

import (
	"math"

	"damq/internal/packet"
)

// ruleKind names the admission rule of the admission/storage split: the
// decision whether a routed packet may join its queue, made over the
// group's occupancy registers. Every rule is pure — no mutation, no
// allocation, no randomness — so the same (packet, state) always decides
// the same way regardless of worker count; that is what keeps the
// sharded simulator byte-identical.
type ruleKind uint8

const (
	// completeSharing is 1988's FIFO/DAMQ/DAFC admission: any packet
	// that fits in the pool's free space enters. Maximal storage
	// utilization, no isolation — one hot output can monopolize every
	// slot.
	completeSharing ruleKind = iota
	// completePartition is 1988's SAMQ/SAFC admission: each queue owns a
	// fixed share of the slots that no other traffic can use, so a burst
	// toward one output can be rejected while slots reserved for other
	// outputs sit empty — the storage inefficiency the DAMQ removes.
	completePartition
	// dynThreshold is the classic Dynamic Threshold policy (Choudhury &
	// Hahne): a queue may grow to at most alpha times the pool's current
	// free space. The threshold is self-regulating — as the pool fills,
	// free space shrinks and with it every queue's allowance,
	// deliberately holding a fraction 1/(1+alpha·n_active) of the pool in
	// reserve for queues that were idle when a burst began.
	dynThreshold
	// fbSharing is FB-style flexible sharing across priority classes
	// (Apostolaki et al.): class c gets a reserved quota no other class
	// can touch, plus a dynamic-threshold share of free space that halves
	// with each step down in priority (alpha_c = alpha / 2^c). High
	// classes therefore burst into most of the pool while low classes are
	// capped early, and the reserved quota keeps every class live under
	// overload.
	fbSharing
	// bshare is BShare-style queueing-delay-driven sharing (Agarwal et
	// al.): admission starts from a dynamic threshold, but a queue whose
	// head packet has waited past the delay target is draining too slowly
	// to justify its share — its allowance shrinks in proportion to the
	// overshoot (never below a one-packet reserve), shifting buffer
	// toward queues that are actually moving.
	bshare
)

var ruleNames = [...]string{"complete-sharing", "complete-partitioning", "dynamic-threshold", "fb-flexible", "bshare-delay"}

// rule is one group's admission rule and its parameters; each kind reads
// only its own fields.
type rule struct {
	kind     ruleKind
	perQueue int32   // completePartition: slots statically owned by each queue
	classes  int     // fbSharing: priority class count
	alpha    float64 // dynThreshold, fbSharing, bshare: threshold multiplier
	reserve  int     // fbSharing: slots guaranteed per class; bshare: slots a queue may always hold
	target   int64   // bshare: head-of-line delay target, in pool ticks
}

// room is the largest slot count a packet of class k (Class; 0 for
// every classless rule) may bring to queue q of g right now: the
// admission rule solved for the packet's size, 0 when nothing fits.
// Admission is p.Slots <= room, and a published room register holds the
// same value, so this is the only encoding of each rule. Every room is at
// most the pool's free count, which makes it the whole decision under
// complete sharing. The threshold rules admit while float64(used+slots)
// <= limit; with an integer left side that holds exactly when used+slots
// <= floor(limit), which roomUnder solves.
//
// Complete sharing is answered here so the call inlines for FIFO, DAMQ
// and DAFC; ruleRoom solves every other rule.
// damqvet:hotpath
func (g *group) room(q, k int) int32 {
	if g.rule.kind == completeSharing {
		return g.pool.freeCount
	}
	return g.ruleRoom(q, k)
}

// ruleRoom is room for the rules other than complete sharing.
// damqvet:hotpath
func (g *group) ruleRoom(q, k int) int32 {
	r := &g.rule
	sp := &g.pool
	free := sp.freeCount
	switch r.kind {
	case completePartition:
		return max(0, min(free, r.perQueue-int32(sp.QueueSlots(q))))
	case dynThreshold:
		return roomUnder(r.alpha*float64(free), free, sp.QueueSlots(q))
	case fbSharing:
		// Class k holds its reserved quota outright and a share of free
		// space that halves per class step; the quota term makes the
		// threshold at least the reserve, so one inequality covers both.
		used := 0
		if g.classSlots != nil { // a one-class pool keeps no class tally
			used = g.classSlots[k]
		}
		alphaC := r.alpha / float64(int64(1)<<uint(k))
		return roomUnder(float64(r.reserve)+alphaC*float64(free), free, used)
	default: // bshare
		limit := r.alpha * float64(free)
		if age := sp.HeadAge(q); age > r.target {
			limit *= float64(r.target) / float64(age)
			if limit < float64(r.reserve) {
				limit = float64(r.reserve)
			}
		}
		return roomUnder(limit, free, sp.QueueSlots(q))
	}
}

// roomUnder is the largest slot count s <= free with float64(used+s) <=
// limit, or 0 when there is none.
// damqvet:hotpath
func roomUnder(limit float64, free int32, used int) int32 {
	if limit >= float64(int(free)+used) {
		return free
	}
	return max(0, int32(math.Floor(limit))-int32(used))
}

// classOf derives a packet's priority class from its ID with a
// splitmix64-style finalizer. A plain ID%classes would correlate class
// with the sharded simulator's per-shard ID striding (shard k mints IDs
// k, k+stride, 2k+stride, ...), silently segregating classes by shard;
// mixing first makes class assignment uniform and — because it depends
// only on the packet's identity — identical at any worker count.
// damqvet:hotpath
func classOf(p *packet.Packet, classes int) int {
	x := p.ID
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(classes))
}

// Class is the priority class the FB policy files p under, given the
// configured class count. Exported so traffic generators, metrics, and
// tests agree with admission on the class mapping.
func Class(p *packet.Packet, classes int) int {
	if classes <= 1 {
		return 0
	}
	return classOf(p, classes)
}
