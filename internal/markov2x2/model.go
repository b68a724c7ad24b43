// Package markov2x2 defines exact Markov models of the paper's 2×2
// discarding switches, one per buffer organization, for reproduction of
// Table 2 ("Probability for Discarding - Markov Analysis").
//
// Modeling assumptions follow Section 4.1 of the paper:
//
//   - fixed-length packets (one slot each) and a "long clock": a packet
//     completely arrives or completely departs within one cycle;
//   - each input port independently receives a packet with probability
//     equal to the traffic level, addressed to either output with equal
//     probability;
//   - arbitration transmits two packets whenever any assignment of
//     buffers to output ports allows it, otherwise one packet from the
//     longest queue; remaining ties are broken uniformly at random (the
//     paper does not specify a tie-break; a fair coin keeps the chain
//     symmetric between ports);
//   - a packet arriving at a buffer that cannot store it is discarded;
//   - within a cycle, departures precede arrivals, so a slot freed this
//     cycle can hold a packet arriving this cycle.
//
// Buffer state per input port:
//
//   - FIFO: the ordered sequence of destination bits (queue order
//     matters: only the head is transmittable);
//   - DAMQ: per-output packet counts n0,n1 with n0+n1 ≤ slots (order
//     within a queue is irrelevant for fixed-size packets);
//   - SAMQ/SAFC: per-output counts bounded by slots/2 each (static
//     partition). SAFC can transmit from both of a port's queues in one
//     cycle (one RAM per queue); SAMQ and DAMQ transmit at most one
//     packet per port per cycle (single read port).
package markov2x2

import (
	"fmt"

	"damq/internal/buffer"
	"damq/internal/markov"
)

// Model is a markov.Model of one 2×2 discarding switch. It is not safe
// for concurrent use: Next and departureActions append into scratch kept
// on the Model, so that neither allocates once the scratch has grown.
type Model struct {
	kind  buffer.Kind
	slots int
	load  float64

	// departureActions' scratch: the candidate connections, the pairs
	// of every action it enumerates (each action is a window of pairs),
	// and the actions.
	cands []pair
	pairs []pair
	acts  [][]pair
	// rewards backs the Rewards vectors of the arcs Next returns.
	rewards []float64
}

// Reward dimensions produced by the model.
const (
	RewardArrivals = iota // packets offered to the switch
	RewardDiscards        // packets discarded at full buffers
	RewardDepartures
	numRewards
)

// New validates parameters and constructs a model. SAMQ and SAFC need an
// even slot count ("they can only have an even number of slots").
func New(kind buffer.Kind, slots int, load float64) (*Model, error) {
	if slots <= 0 || slots > 12 {
		return nil, fmt.Errorf("markov2x2: slots must be in 1..12, got %d", slots)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("markov2x2: load must be in [0,1], got %v", load)
	}
	if (kind == buffer.SAMQ || kind == buffer.SAFC) && slots%2 != 0 {
		return nil, fmt.Errorf("markov2x2: %v needs an even slot count, got %d", kind, slots)
	}
	switch kind {
	case buffer.FIFO, buffer.SAMQ, buffer.SAFC, buffer.DAMQ, buffer.DAFC:
	default:
		return nil, fmt.Errorf("markov2x2: unknown buffer kind %v", kind)
	}
	return &Model{kind: kind, slots: slots, load: load}, nil
}

// NumRewards implements markov.Model.
func (m *Model) NumRewards() int { return numRewards }

// Initial implements markov.Model: both ports empty.
func (m *Model) Initial() uint64 {
	return m.encode([2]port{m.emptyPort(), m.emptyPort()})
}

// port is the decoded state of one input port's buffer.
type port struct {
	// FIFO representation: qlen destinations, bit i of qbits is the
	// destination of the i-th oldest packet (bit 0 = head).
	qlen  int
	qbits uint16
	// Count representation (DAMQ/SAMQ/SAFC).
	n [2]int
}

func (m *Model) emptyPort() port { return port{} }

// used returns occupied slots.
func (m *Model) used(p port) int {
	if m.kind == buffer.FIFO {
		return p.qlen
	}
	return p.n[0] + p.n[1]
}

// servable reports whether the port could send a packet to out this cycle.
func (m *Model) servable(p port, out int) bool {
	if m.kind == buffer.FIFO {
		return p.qlen > 0 && int(p.qbits&1) == out
	}
	return p.n[out] > 0
}

// queueLen is the "longest queue" metric for arbitration: for a FIFO the
// whole buffer is one queue; for multi-queue buffers it is the per-output
// queue length.
func (m *Model) queueLen(p port, out int) int {
	if m.kind == buffer.FIFO {
		if m.servable(p, out) {
			return p.qlen
		}
		return 0
	}
	return p.n[out]
}

// pop removes the packet serving out. Callers must check servable first.
func (m *Model) pop(p port, out int) port {
	if m.kind == buffer.FIFO {
		p.qbits >>= 1
		p.qlen--
		return p
	}
	p.n[out]--
	return p
}

// canAccept reports whether a packet destined for dest fits.
func (m *Model) canAccept(p port, dest int) bool {
	switch m.kind {
	case buffer.FIFO, buffer.DAMQ, buffer.DAFC:
		return m.used(p) < m.slots
	default: // SAMQ, SAFC: static partition
		return p.n[dest] < m.slots/2
	}
}

// push stores a packet destined for dest. Callers must check canAccept.
func (m *Model) push(p port, dest int) port {
	if m.kind == buffer.FIFO {
		p.qbits |= uint16(dest) << p.qlen
		p.qlen++
		return p
	}
	p.n[dest]++
	return p
}

// maxReads is the per-port transmit limit per cycle.
func (m *Model) maxReads() int {
	if m.kind == buffer.SAFC || m.kind == buffer.DAFC {
		return 2
	}
	return 1
}

// encode packs both port states into a uint64 key (16 bits per port).
func (m *Model) encode(ps [2]port) uint64 {
	var k uint64
	for i, p := range ps {
		var v uint64
		if m.kind == buffer.FIFO {
			// Marker encoding: 1 << qlen flags the length, low bits hold
			// the destinations. qlen <= 12 fits 13 bits.
			v = uint64(1)<<p.qlen | uint64(p.qbits)
		} else {
			v = uint64(p.n[0]) | uint64(p.n[1])<<8
		}
		k |= v << (16 * i)
	}
	return k
}

// decode unpacks a state key.
func (m *Model) decode(k uint64) [2]port {
	var ps [2]port
	for i := 0; i < 2; i++ {
		v := (k >> (16 * i)) & 0xffff
		if m.kind == buffer.FIFO {
			// Find the marker bit.
			qlen := 15
			for ; qlen > 0; qlen-- {
				if v&(1<<qlen) != 0 {
					break
				}
			}
			ps[i] = port{qlen: qlen, qbits: uint16(v &^ (1 << qlen))}
		} else {
			ps[i] = port{n: [2]int{int(v & 0xff), int(v >> 8)}}
		}
	}
	return ps
}

// pair is one potential crossbar connection.
type pair struct{ port, out int }

// departureActions returns the set of equally likely departure actions
// under the paper's arbitration rule, given the current port states. Each
// action is a list of (port, out) connections, all actions returned have
// the same probability 1/len(actions). The result lives in the Model's
// scratch and is valid until the next call.
func (m *Model) departureActions(ps [2]port) [][]pair {
	// Enumerate all candidate pairs.
	cands := m.cands[:0]
	for pi := 0; pi < 2; pi++ {
		for out := 0; out < 2; out++ {
			if m.servable(ps[pi], out) {
				cands = append(cands, pair{pi, out})
			}
		}
	}
	// Enumerate valid subsets (at most 4 candidates -> at most 16 subsets).
	reads := m.maxReads()
	pairs, best := m.pairs[:0], m.acts[:0]
	bestSize := 0
	for mask := 0; mask < 1<<len(cands); mask++ {
		start := len(pairs)
		outUsed := [2]bool{}
		portUsed := [2]int{}
		valid := true
		for ci := 0; ci < len(cands) && valid; ci++ {
			if mask&(1<<ci) == 0 {
				continue
			}
			c := cands[ci]
			if outUsed[c.out] || portUsed[c.port] >= reads {
				valid = false
				break
			}
			outUsed[c.out] = true
			portUsed[c.port]++
			pairs = append(pairs, c)
		}
		if !valid {
			pairs = pairs[:start]
			continue
		}
		act := pairs[start:len(pairs):len(pairs)]
		if len(act) > bestSize {
			bestSize = len(act)
			best = best[:0]
		}
		if len(act) == bestSize {
			best = append(best, act)
		}
	}
	m.cands, m.pairs, m.acts = cands, pairs, best
	// Longest-queue rule: among maximum-cardinality actions keep those
	// serving the greatest total queue length (for a single departure this
	// is exactly "send a packet from the longest queue"; for double
	// departures it extends the same principle), remaining ties are
	// resolved by a fair coin.
	maxLen := -1
	for _, act := range best {
		if l := m.servedLen(ps, act); l > maxLen {
			maxLen = l
		}
	}
	n := 0
	for _, act := range best {
		if m.servedLen(ps, act) == maxLen {
			best[n] = act
			n++
		}
	}
	return best[:n]
}

// servedLen is the total length of the queues an action serves.
func (m *Model) servedLen(ps [2]port, act []pair) int {
	total := 0
	for _, c := range act {
		total += m.queueLen(ps[c.port], c.out)
	}
	return total
}

// applyAction returns the port states after the departures in act.
func (m *Model) applyAction(ps [2]port, act []pair) [2]port {
	for _, c := range act {
		ps[c.port] = m.pop(ps[c.port], c.out)
	}
	return ps
}

// arrival describes one port's arrival event for a cycle.
type arrival struct {
	p    float64
	has  bool
	dest int
}

// arrivalEvents is the per-port arrival distribution.
func (m *Model) arrivalEvents() [3]arrival {
	return [3]arrival{
		{p: 1 - m.load, has: false},
		{p: m.load / 2, has: true, dest: 0},
		{p: m.load / 2, has: true, dest: 1},
	}
}

// Next implements markov.Model.
func (m *Model) Next(s uint64, dst []markov.Arc) []markov.Arc {
	ps := m.decode(s)
	actions := m.departureActions(ps)
	actP := 1.0 / float64(len(actions))
	events := m.arrivalEvents()
	rewards := m.rewards[:0]

	for _, act := range actions {
		afterDep := m.applyAction(ps, act)
		departures := float64(len(act))
		for _, e0 := range events {
			if e0.p == 0 {
				continue
			}
			for _, e1 := range events {
				if e1.p == 0 {
					continue
				}
				next := afterDep
				arrivals, discards := 0.0, 0.0
				for pi, e := range [2]arrival{e0, e1} {
					if !e.has {
						continue
					}
					arrivals++
					if m.canAccept(next[pi], e.dest) {
						next[pi] = m.push(next[pi], e.dest)
					} else {
						discards++
					}
				}
				rewards = append(rewards, arrivals, discards, departures)
				n := len(rewards)
				dst = append(dst, markov.Arc{
					To:      m.encode(next),
					P:       actP * e0.p * e1.p,
					Rewards: rewards[n-numRewards : n : n],
				})
			}
		}
	}
	m.rewards = rewards
	return dst
}

// Result of solving one Table 2 cell.
type Result struct {
	Kind        buffer.Kind
	Slots       int
	Load        float64
	States      int
	PDiscard    float64 // probability an arriving packet is discarded
	Throughput  float64 // departures per port per cycle
	ArrivalRate float64 // arrivals per cycle (2 ports)
}

// Solve builds the chain, computes the stationary distribution, and
// returns the discard probability — one cell of Table 2.
func Solve(kind buffer.Kind, slots int, load float64) (Result, error) {
	m, err := New(kind, slots, load)
	if err != nil {
		return Result{}, err
	}
	chain, err := markov.Build(m, 2_000_000)
	if err != nil {
		return Result{}, err
	}
	pi, err := chain.Steady()
	if err != nil {
		return Result{}, err
	}
	rates := chain.RewardRates(pi)
	res := Result{
		Kind:        kind,
		Slots:       slots,
		Load:        load,
		States:      chain.NumStates(),
		ArrivalRate: rates[RewardArrivals],
		Throughput:  rates[RewardDepartures] / 2,
	}
	if rates[RewardArrivals] > 0 {
		res.PDiscard = rates[RewardDiscards] / rates[RewardArrivals]
	}
	return res, nil
}
