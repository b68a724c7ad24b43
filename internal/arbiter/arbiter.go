// Package arbiter implements the central crossbar arbiter of a switch,
// with the two arbitration policies the paper simulates (Section 4.2):
//
//   - Dumb: buffers are examined one at a time in round-robin priority
//     order; each cycle the priority pointer advances to the next buffer
//     regardless of whether the previous priority holder transmitted.
//   - Smart: the priority pointer advances only when the buffer that held
//     priority actually transmitted a packet — a turn is not "counted"
//     when every queue in the buffer was blocked. Additionally a stale
//     count per queue tracks how long a queue has held packets without
//     transmitting, and queue selection within a buffer prefers the
//     stalest queue (ties broken by longest queue), maintaining fairness
//     within the buffer.
//
// When examining a buffer the arbiter transmits from the longest eligible
// (non-blocked, output-still-free) queue. A buffer with a single read port
// (FIFO, SAMQ, DAMQ) gets at most one grant per cycle; an SAFC buffer may
// receive up to one grant per queue.
//
// Like the chip's arbitration logic, the arbiter decides from request
// bits: per input, a mask of queues with a head packet and a mask of
// heads the downstream buffer has room for. One scan over those masks
// serves every switch of up to MaxOutputs outputs.
package arbiter

import (
	"fmt"
	"math/bits"

	"damq/internal/cfgerr"
	"damq/internal/names"
	"damq/internal/obs"
)

// Policy selects the fairness scheme.
type Policy int

const (
	// Dumb advances buffer priority round-robin unconditionally.
	Dumb Policy = iota
	// Smart advances priority only on successful transmission and applies
	// per-queue stale counts.
	Smart
)

// String names the policy as in the paper's tables.
func (p Policy) String() string {
	switch p {
	case Dumb:
		return "dumb"
	case Smart:
		return "smart"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// policyNames lists the policies in enum order for the shared parser.
var policyNames = [...]string{"dumb", "smart"}

// ParsePolicy converts "dumb" or "smart" (any case) to a Policy. The
// error wraps cfgerr.ErrBadPolicy.
func ParsePolicy(s string) (Policy, error) {
	if i := names.Index(s, policyNames[:]); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("arbiter: unknown policy %q (want %s): %w",
		s, names.List(policyNames[:]), cfgerr.ErrBadPolicy)
}

// MaxOutputs is the most outputs an arbiter serves: a Snapshot row is
// one 64-bit mask over a buffer's output queues.
const MaxOutputs = 64

// Snapshot is what the arbiter sees of its switch in one cycle: per
// input buffer, two bit masks over its output queues plus the queue
// lengths. The switch fills it before each Arbitrate call; Arbitrate
// only reads it. Bit o of a mask stands for output o, so a switch has at
// most 64 outputs.
type Snapshot struct {
	// Busy[in] marks the queues of input in with a deliverable head
	// packet: QueueLen > 0 (a FIFO reports 0 for every output but its
	// head's). The arbiter skips a row whose Busy is 0 without reading
	// anything else of it, so the switch need not fill QueueLen rows of
	// empty inputs.
	Busy []uint64
	// Ready[in] marks the busy queues whose head the downstream buffer
	// has room for; Ready == Busy when nothing ever blocks (a
	// discarding protocol, or a stage feeding sinks).
	Ready []uint64
	// QueueLen[in*outputs+out] is the number of packets input in could
	// eventually send to out (0 when a FIFO's head is for a different
	// output). It is read only to choose among two or more ready queues.
	QueueLen []int
	// MaxReads[in] is the read-port limit of input in's buffer.
	MaxReads []int
}

// NewSnapshot allocates a snapshot for an inputs×outputs switch with one
// read port per input: the two masks share one array, the two tables
// another.
func NewSnapshot(inputs, outputs int) Snapshot {
	m := make([]uint64, 2*inputs)
	t := make([]int, inputs*(outputs+1))
	v := Snapshot{
		Busy:     m[:inputs:inputs],
		Ready:    m[inputs:],
		MaxReads: t[:inputs:inputs],
		QueueLen: t[inputs:],
	}
	for i := range v.MaxReads {
		v.MaxReads[i] = 1
	}
	return v
}

// Grant is one crossbar connection for the current cycle.
type Grant struct {
	In  int
	Out int
}

// Arbiter holds the priority pointer and stale counts across cycles.
type Arbiter struct {
	policy  Policy
	inputs  int
	outputs int
	prio    int
	stale   []int64 // [in*outputs+out] cycles the queue has waited with traffic

	// Observability probes (nil when no observer is attached). Every use
	// sits behind an `if x != nil` guard so the unobserved arbiter stays
	// branch-predictable, allocation-free, and bit-identical.
	mGrants    *obs.Counter // crossbar connections granted
	mConflicts *obs.Counter // occupied queues that lost because the output was taken
	mBlocked   *obs.Counter // queue heads refused by the downstream buffer
}

// New constructs an arbiter for a switch with the given port counts. It
// panics unless both are positive and outputs fits a 64-bit mask.
func New(policy Policy, inputs, outputs int) *Arbiter {
	if inputs <= 0 || outputs <= 0 || outputs > MaxOutputs {
		panic(fmt.Sprintf("arbiter: %d×%d ports, want positive counts and at most %d outputs",
			inputs, outputs, MaxOutputs))
	}
	return &Arbiter{
		policy: policy, inputs: inputs, outputs: outputs,
		stale: make([]int64, inputs*outputs),
	}
}

// Policy returns the arbitration policy in use.
func (a *Arbiter) Policy() Policy { return a.policy }

// SetMetrics attaches (or, with nils, detaches) the grant/conflict/
// blocked-head counters. Cold path: call before simulation starts.
func (a *Arbiter) SetMetrics(grants, conflicts, blocked *obs.Counter) {
	a.mGrants = grants
	a.mConflicts = conflicts
	a.mBlocked = blocked
}

// AdvanceIdle fast-forwards the arbiter through cycles rounds in which
// every queue was empty, producing exactly the state Arbitrate would have
// left behind. An empty round mutates only the priority pointer: under
// Dumb it advances unconditionally, and under Smart an empty priority
// holder forfeits its turn (no grants, so the pointer falls through to the
// round-robin default); stale counts of empty queues are already zero and
// stay zero. Network simulators use this to skip arbitration of empty
// switches without perturbing later arbitration decisions.
// damqvet:hotpath
func (a *Arbiter) AdvanceIdle(cycles int64) {
	if cycles <= 0 {
		return
	}
	a.prio = int((int64(a.prio) + cycles) % int64(a.inputs))
}

// Stale exposes the stale counter of queue (in, out) for tests.
func (a *Arbiter) Stale(in, out int) int64 { return a.stale[in*a.outputs+out] }

// Reset clears priority and stale state.
func (a *Arbiter) Reset() {
	a.prio = 0
	for i := range a.stale {
		a.stale[i] = 0
	}
}

// Arbitrate computes this cycle's crossbar matching. It appends grants to
// dst (pass nil to allocate) and returns the result; the order of grants
// follows the examination order, which tests rely on.
//
// One scan serves every port count up to MaxOutputs, both policies, any
// read-port limit and observed arbiters, in the style of hardware
// request logic: a row's candidates are the set bits of Ready &^ taken,
// walked from the lowest output, and stale counts and queue lengths are
// read only to choose among two or more of them.
// TestArbitrateMatchesReference and the 2×2 sweeps pin it against a
// brute-force reference.
// damqvet:hotpath
func (a *Arbiter) Arbitrate(v *Snapshot, dst []Grant) []Grant {
	n, m := a.inputs, a.outputs
	if len(v.Busy) != n || len(v.Ready) != n || len(v.QueueLen) != n*m || len(v.MaxReads) != n {
		panic(fmt.Sprintf("arbiter: snapshot is %d inputs × %d queues, arbiter is %dx%d",
			len(v.Busy), len(v.QueueLen), n, m))
	}
	counted := a.mConflicts != nil || a.mBlocked != nil
	var taken uint64 // outputs granted so far this cycle
	// first is the first input served, in examination order. The
	// priority holder is examined first, so it transmitted exactly when
	// first == a.prio.
	first := -1
	i := a.prio
	for k := 0; k < n; k++ {
		// An input with no busy queue can receive no grant, and its stale
		// counts are already zero (a queue only carries a nonzero stale
		// count while it holds traffic, and any pop routes through a
		// grant, which resets the count), so the row is skipped whole.
		if busy := v.Busy[i]; busy != 0 {
			ready := v.Ready[i]
			var sent uint64 // this row's granted outputs
			for r := v.MaxReads[i]; r > 0; r-- {
				if counted {
					a.count(busy, ready, taken)
				}
				elig := ready &^ taken
				if elig == 0 {
					break
				}
				best := bits.TrailingZeros64(elig)
				if rest := elig & (elig - 1); rest != 0 {
					best = a.pick(v.QueueLen[i*m:(i+1)*m], a.stale[i*m:(i+1)*m], best, rest)
				}
				bit := uint64(1) << best
				taken |= bit
				sent |= bit
				if first < 0 {
					first = i
				}
				dst = append(dst, Grant{In: i, Out: best})
				if a.mGrants != nil {
					a.mGrants.Inc()
				}
			}
			// The row's stale counts are final once its examination ends,
			// since later rows cannot grant to it: queues holding traffic
			// that did not transmit age by one; transmitting or empty
			// queues reset. (A queue that sent one of several waiting
			// packets still made progress, so it resets.)
			waiting := busy &^ sent
			stale := a.stale[i*m : (i+1)*m]
			for o := range stale {
				stale[o] = (stale[o] + 1) & -int64(waiting&1)
				waiting >>= 1
			}
		}
		if i++; i == n {
			i = 0
		}
	}

	// Advance the priority pointer. Under Smart, a priority holder whose
	// packets were all blocked keeps its turn (the paper "does not count
	// the times a buffer has priority but still does not transmit").
	// That rule is only about buffers that held traffic: an empty holder
	// forfeits, and the pointer rotates to just past the first buffer
	// actually served, so quiet inputs cannot pin the examination order
	// and starve later buffers. Dumb always advances by one.
	next := a.prio
	switch {
	case a.policy == Smart && v.Busy[a.prio] != 0 && first != a.prio:
		return dst
	case a.policy == Smart && first >= 0:
		next = first
	}
	if next++; next == n {
		next = 0
	}
	a.prio = next
	return dst
}

// count adds one read round's rejections to the observed counters:
// busy queues whose output another grant already took are conflicts,
// and busy queues on free outputs whose head does not fit downstream
// are blocked heads.
// damqvet:hotpath
func (a *Arbiter) count(busy, ready, taken uint64) {
	if a.mConflicts != nil {
		a.mConflicts.Add(int64(bits.OnesCount64(busy & taken)))
	}
	if a.mBlocked != nil {
		a.mBlocked.Add(int64(bits.OnesCount64(busy &^ taken &^ ready)))
	}
}

// pick chooses among two or more eligible outputs of one input row: best
// is the lowest one and rest the others. The policy's selection rule is
// stalest first (Smart only), then longest queue, ties keeping the lowest
// output.
// damqvet:hotpath
func (a *Arbiter) pick(qlen []int, stale []int64, best int, rest uint64) int {
	for ; rest != 0; rest &= rest - 1 {
		o := bits.TrailingZeros64(rest)
		if a.policy == Smart && stale[o] != stale[best] {
			if stale[o] > stale[best] {
				best = o
			}
		} else if qlen[o] > qlen[best] {
			best = o
		}
	}
	return best
}

// State is the arbiter's cross-cycle state — the round-robin priority
// pointer and the stale (age) counters — exposed for the simulator
// checkpoint codec. Everything else in an Arbiter is per-cycle scratch
// that Arbitrate rewrites before reading.
type State struct {
	Prio  int
	Stale []int64 // [in*outputs + out], row-major
}

// SaveState captures the cross-cycle state.
func (a *Arbiter) SaveState() State {
	return State{Prio: a.prio, Stale: append([]int64(nil), a.stale...)}
}

// LoadState overwrites the cross-cycle state with a previously saved
// one, validating its shape against the arbiter's port counts.
func (a *Arbiter) LoadState(st State) error {
	if st.Prio < 0 || st.Prio >= a.inputs {
		return fmt.Errorf("arbiter: priority %d out of range [0, %d)", st.Prio, a.inputs)
	}
	if len(st.Stale) != a.inputs*a.outputs {
		return fmt.Errorf("arbiter: %d stale counters for a %d×%d switch", len(st.Stale), a.inputs, a.outputs)
	}
	for _, v := range st.Stale {
		if v < 0 {
			return fmt.Errorf("arbiter: negative stale count %d", v)
		}
	}
	a.prio = st.Prio
	copy(a.stale, st.Stale)
	return nil
}
