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
package arbiter

import (
	"fmt"

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

// Snapshot is what the arbiter sees of its switch in one cycle: the
// state of every (input buffer, output queue) pair. The switch fills it
// before each Arbitrate call; Arbitrate only reads it. A queue with
// QueueLen > 0 is understood to have a deliverable head packet (FIFOs
// report 0 when the head is for a different output), so QueueLen doubles
// as the head-availability test.
type Snapshot struct {
	// InputLen[in] is the total packet count buffered at input in. The
	// arbiter skips a row whose InputLen is 0 without reading its queues,
	// so the switch need not fill QueueLen rows of empty inputs.
	InputLen []int
	// QueueLen[in*outputs+out] is the number of packets input in could
	// eventually send to out (0 when a FIFO's head is for a different
	// output).
	QueueLen []int
	// MaxReads[in] is the read-port limit of input in's buffer.
	MaxReads []int
	// Blocked reports whether the head packet of (in, out) cannot be
	// forwarded because the downstream buffer refuses it. It is only
	// called when QueueLen > 0; nil means nothing ever blocks (a
	// discarding protocol, or a stage feeding sinks).
	Blocked func(in, out int) bool
}

// NewSnapshot allocates a snapshot for an inputs×outputs switch with one
// read port per input, its three tables carved from one array.
func NewSnapshot(inputs, outputs int) Snapshot {
	t := make([]int, inputs*(outputs+2))
	v := Snapshot{
		InputLen: t[:inputs:inputs],
		MaxReads: t[inputs : 2*inputs : 2*inputs],
		QueueLen: t[2*inputs:],
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

	// Per-cycle scratch of the general scan, allocated once: Arbitrate
	// runs for every switch on every network cycle, so per-call slice
	// allocations would dominate the simulator's heap profile.
	outTaken []bool
	sentRow  []bool // current input row's granted outputs

	// Observability probes (nil when no observer is attached). Every use
	// sits behind an `if x != nil` guard so the unobserved arbiter stays
	// branch-predictable, allocation-free, and bit-identical.
	mGrants    *obs.Counter // crossbar connections granted
	mConflicts *obs.Counter // occupied queues that lost because the output was taken
	mBlocked   *obs.Counter // queue heads refused by the downstream buffer
}

// New constructs an arbiter for a switch with the given port counts.
func New(policy Policy, inputs, outputs int) *Arbiter {
	if inputs <= 0 || outputs <= 0 {
		panic("arbiter: ports must be positive")
	}
	scratch := make([]bool, 2*outputs)
	return &Arbiter{
		policy: policy, inputs: inputs, outputs: outputs,
		stale:    make([]int64, inputs*outputs),
		outTaken: scratch[:outputs:outputs],
		sentRow:  scratch[outputs:],
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
// The 2×2 single-read-port case — the building block of binary multistage
// networks — dispatches to a branchless fast path that computes the whole
// matching as boolean expressions; every other shape (or an arbiter with
// counters attached, which must count candidate rejections the boolean
// form never enumerates) takes the general scan. Both produce identical
// grants, priority movement, and stale counts; TestArbitrate2x2Exhaustive
// and TestArbitrate2x2Trajectory pin that against the general path run on
// the same state, and TestArbitrateMatchesReference pins the general scan
// against a brute-force reference.
// damqvet:hotpath
func (a *Arbiter) Arbitrate(v *Snapshot, dst []Grant) []Grant {
	if len(v.InputLen) != a.inputs || len(v.QueueLen) != a.inputs*a.outputs || len(v.MaxReads) != a.inputs {
		panic(fmt.Sprintf("arbiter: snapshot is %d inputs × %d queues, arbiter is %dx%d",
			len(v.InputLen), len(v.QueueLen), a.inputs, a.outputs))
	}
	if a.inputs == 2 && a.outputs == 2 &&
		a.mGrants == nil && a.mConflicts == nil && a.mBlocked == nil &&
		v.MaxReads[0] == 1 && v.MaxReads[1] == 1 {
		return a.arbitrate2x2(v, dst)
	}
	return a.arbitrateGeneral(v, dst)
}

// arbitrate2x2 is the fast path for a 2×2 switch whose buffers expose one
// read port: forwarding eligibility, conflict resolution, and priority
// movement reduce to pure boolean expressions over the four queue states,
// with no per-candidate loops — the style of hardware arbitration logic,
// one gate level per term. Row i0 (the priority holder) picks first; row
// i1 then sees i0's winning output as taken.
// damqvet:hotpath
func (a *Arbiter) arbitrate2x2(v *Snapshot, dst []Grant) []Grant {
	i0 := a.prio
	i1 := i0 ^ 1
	len0 := v.InputLen[i0] > 0
	len1 := v.InputLen[i1] > 0

	var g0, g1, g0hi bool // row grants; g0hi = row i0 took output 1
	if len0 {
		p0, p1 := a.pick2(v, i0, false, false)
		g0 = p0 || p1
		g0hi = p1
		if g0 {
			dst = append(dst, Grant{In: i0, Out: b2i(p1)})
		}
	}
	if len1 {
		p0, p1 := a.pick2(v, i1, g0 && !g0hi, g0 && g0hi)
		g1 = p0 || p1
		if g1 {
			dst = append(dst, Grant{In: i1, Out: b2i(p1)})
		}
	}

	// Priority as one boolean term. Smart keeps the pointer on i0 when the
	// holder had traffic but sent nothing (blocked turns are not counted),
	// and lands on i0 after a round where only i1 transmitted (rotate past
	// the first server); every other case — any dumb round, a holder
	// grant, a completely idle round — moves it to i1.
	if a.policy == Smart && !g0 && (len0 || g1) {
		a.prio = i0
	} else {
		a.prio = i1
	}
	return dst
}

// pick2 computes one 2×2 row's winning output as boolean logic: e_o is
// the forward-eligibility of queue o (has traffic, output free, head not
// blocked downstream), beats is the policy's preference for output 1 over
// output 0 (stalest first under smart, then longest queue, ties to the
// lower output), and the one-hot pick follows. Stale counts transition
// exactly as the general row epilogue: waiting queues age, transmitting
// or empty queues reset.
// damqvet:hotpath
func (a *Arbiter) pick2(v *Snapshot, i int, t0, t1 bool) (p0, p1 bool) {
	s := a.stale[2*i : 2*i+2]
	q0 := v.QueueLen[2*i]
	q1 := v.QueueLen[2*i+1]
	e0 := !t0 && q0 > 0 && (v.Blocked == nil || !v.Blocked(i, 0))
	e1 := !t1 && q1 > 0 && (v.Blocked == nil || !v.Blocked(i, 1))
	smart := a.policy == Smart
	beats := (smart && s[1] > s[0]) || ((!smart || s[1] == s[0]) && q1 > q0)
	p1 = e1 && (!e0 || beats)
	p0 = e0 && !p1
	s[0] = staleNext(s[0], q0 > 0 && !p0)
	s[1] = staleNext(s[1], q1 > 0 && !p1)
	return p0, p1
}

// staleNext is the per-queue stale transition function.
// damqvet:hotpath
func staleNext(old int64, waiting bool) int64 {
	if waiting {
		return old + 1
	}
	return 0
}

// b2i maps a one-hot output-1 pick to its output index.
// damqvet:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// arbitrateGeneral is the reference matching algorithm for every port
// count, read-port limit, and observed arbiter.
// damqvet:hotpath
func (a *Arbiter) arbitrateGeneral(v *Snapshot, dst []Grant) []Grant {
	outTaken := a.outTaken
	for i := range outTaken {
		outTaken[i] = false
	}
	// firstGranted is the first input served, in examination order. The
	// priority holder is examined first, so it transmitted exactly when
	// firstGranted == a.prio.
	firstGranted := -1
	sentRow := a.sentRow

	for k := 0; k < a.inputs; k++ {
		i := (a.prio + k) % a.inputs
		if v.InputLen[i] == 0 {
			// An empty input can receive no grant, and its stale counts
			// are already zero (a queue only carries a nonzero stale
			// count while it holds traffic — any pop routes through a
			// grant, which resets the count), so the whole row is
			// skipped without touching its queues.
			continue
		}
		qlen := v.QueueLen[i*a.outputs : (i+1)*a.outputs]
		stale := a.stale[i*a.outputs : (i+1)*a.outputs]
		for o := range sentRow {
			sentRow[o] = false
		}
		for r := 0; r < v.MaxReads[i]; r++ {
			best := -1
			// The three rejection tests keep the pre-observability
			// short-circuit order (taken output, empty queue, blocked head)
			// so the unobserved path makes the exact same Blocked calls.
			for o := 0; o < a.outputs; o++ {
				if outTaken[o] {
					if a.mConflicts != nil {
						if qlen[o] > 0 {
							a.mConflicts.Inc()
						}
					}
					continue
				}
				if qlen[o] == 0 {
					continue
				}
				if v.Blocked != nil && v.Blocked(i, o) {
					if a.mBlocked != nil {
						a.mBlocked.Inc()
					}
					continue
				}
				if best == -1 || better(a.policy, stale, qlen, o, best) {
					best = o
				}
			}
			if best == -1 {
				break
			}
			outTaken[best] = true
			sentRow[best] = true
			if firstGranted == -1 {
				firstGranted = i
			}
			dst = append(dst, Grant{In: i, Out: best})
			if a.mGrants != nil {
				a.mGrants.Inc()
			}
		}
		// Update this row's stale counts — final once its examination
		// ends, since later rows cannot grant to it: queues holding
		// traffic that did not transmit age by one; transmitting or
		// empty queues reset. (A queue that sent one of several waiting
		// packets still made progress, so it resets.)
		for o := range stale {
			if qlen[o] > 0 && !sentRow[o] {
				stale[o]++
			} else {
				stale[o] = 0
			}
		}
	}

	// Advance the priority pointer.
	switch a.policy {
	case Dumb:
		a.prio = (a.prio + 1) % a.inputs
	case Smart:
		// The paper's rule: a priority holder whose packets were all
		// blocked keeps its turn ("does not count the times a buffer has
		// priority but still does not transmit"). That rule is only
		// about buffers that *held traffic*: an empty holder forfeits,
		// and the pointer rotates to just past the first buffer actually
		// served, so quiet inputs cannot pin the examination order and
		// starve later buffers.
		holderHadTraffic := v.InputLen[a.prio] > 0
		switch {
		case holderHadTraffic && firstGranted != a.prio:
			// Blocked with traffic: turn not counted, priority retained.
		case firstGranted >= 0:
			a.prio = (firstGranted + 1) % a.inputs
		default:
			a.prio = (a.prio + 1) % a.inputs
		}
	}
	return dst
}

// better reports whether output o beats the incumbent best within one
// input row under the active policy's selection rule: stalest first
// (smart only), then longest queue, ties keeping the lowest output.
// damqvet:hotpath
func better(policy Policy, stale []int64, qlen []int, o, best int) bool {
	if policy == Smart && stale[o] != stale[best] {
		return stale[o] > stale[best]
	}
	return qlen[o] > qlen[best]
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
