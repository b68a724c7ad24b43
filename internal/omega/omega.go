// Package omega builds the Omega multistage interconnection network
// (Lawrie 1975) used in the paper's Section 4.2 evaluation: a k-ary
// N-input network with log_k(N) stages of k×k switches, connected by the
// perfect shuffle.
//
// The paper simulates a 64×64 Omega network of 4×4 switches (3 stages of
// 16 switches). This package provides topology construction, the shuffle
// wiring, and destination-digit routing for arbitrary k and N = k^stages.
package omega

import "fmt"

// Topology describes one Omega network instance.
type Topology struct {
	k        int // switch radix (ports per switch)
	stages   int // number of switch stages
	inputs   int // network inputs = k^stages
	switches int // switches per stage = inputs / k
	// div[s] is k^(stages-1-s): dividing a destination by it brings the
	// digit stage s routes on into the least significant place.
	div []int
}

// New returns the topology for an inputs-wide Omega network of k×k
// switches. inputs must be a positive power of k.
func New(k, inputs int) (*Topology, error) {
	if k < 2 {
		return nil, fmt.Errorf("omega: radix must be >= 2, got %d", k)
	}
	if inputs < k {
		return nil, fmt.Errorf("omega: inputs %d smaller than radix %d", inputs, k)
	}
	stages := 0
	n := 1
	for n < inputs {
		n *= k
		stages++
	}
	if n != inputs {
		return nil, fmt.Errorf("omega: inputs %d is not a power of radix %d", inputs, k)
	}
	div := make([]int, stages)
	for s, d := stages-1, 1; s >= 0; s, d = s-1, d*k {
		div[s] = d
	}
	return &Topology{k: k, stages: stages, inputs: inputs, switches: inputs / k, div: div}, nil
}

// MustNew is New for known-good parameters.
func MustNew(k, inputs int) *Topology {
	t, err := New(k, inputs)
	if err != nil {
		panic(err)
	}
	return t
}

// Radix returns k, the switch size.
func (t *Topology) Radix() int { return t.k }

// Stages returns the number of switch stages.
func (t *Topology) Stages() int { return t.stages }

// Inputs returns the number of network inputs (= outputs).
func (t *Topology) Inputs() int { return t.inputs }

// SwitchesPerStage returns the number of switches in each stage.
func (t *Topology) SwitchesPerStage() int { return t.switches }

// Shuffle is the k-ary perfect shuffle on line numbers: the wiring pattern
// applied to the N lines entering every stage. Line x maps to
// (x*k + x/(N/k)) mod N — a left rotation of x's base-k digit string.
func (t *Topology) Shuffle(line int) int {
	return (line*t.k)%t.inputs + line/(t.inputs/t.k)
}

// InverseShuffle is the right digit rotation undoing Shuffle: it answers
// "which line of the previous stage boundary feeds this one", which
// event-driven simulators need to wake the correct upstream sender when
// buffer space frees.
func (t *Topology) InverseShuffle(line int) int {
	return line/t.k + (line%t.k)*(t.inputs/t.k)
}

// SwitchPort converts a line number (0..N-1) at a stage boundary into the
// (switch, port) pair it attaches to: consecutive lines fill consecutive
// ports of each switch.
func SwitchPort(k, line int) (sw, port int) { return line / k, line % k }

// Line converts (switch, port) back into a line number.
func Line(k, sw, port int) int { return sw*k + port }

// FirstStageSwitch returns the stage-0 switch and input port fed by
// network input src: the shuffle is applied before the first stage, as in
// Lawrie's definition.
func (t *Topology) FirstStageSwitch(src int) (sw, port int) {
	return SwitchPort(t.k, t.Shuffle(src))
}

// NextStage returns the stage s+1 switch and input port wired to output
// port out of switch sw in stage s. The inter-stage wiring is the same
// perfect shuffle on line numbers.
func (t *Topology) NextStage(sw, out int) (nsw, nport int) {
	return SwitchPort(t.k, t.Shuffle(Line(t.k, sw, out)))
}

// RouteDigit returns the output port a packet for destination dest must
// take at stage (0-based). Omega routing is destination-digit routing:
// stage s consumes the s-th most significant base-k digit of dest.
func (t *Topology) RouteDigit(dest, stage int) int {
	return dest / t.div[stage] % t.k
}

// RouteDivisor is k^(stages-1-stage), the divisor RouteDigit applies at
// stage, for callers that route many packets through one stage.
func (t *Topology) RouteDivisor(stage int) int { return t.div[stage] }

// LastStageOutput returns the network output line reached from output
// port out of switch sw in the last stage.
func (t *Topology) LastStageOutput(sw, out int) int {
	return Line(t.k, sw, out)
}

// Path traces the complete route from network input src to network output
// dest: for each stage, the (switch, inPort, outPort) traversed. It is
// used by tests to validate that shuffle wiring plus digit routing indeed
// delivers every packet, and by examples that want to show a route.
func (t *Topology) Path(src, dest int) []Hop {
	hops := make([]Hop, 0, t.stages)
	sw, port := t.FirstStageSwitch(src)
	for s := 0; s < t.stages; s++ {
		out := t.RouteDigit(dest, s)
		hops = append(hops, Hop{Stage: s, Switch: sw, InPort: port, OutPort: out})
		if s < t.stages-1 {
			sw, port = t.NextStage(sw, out)
		}
	}
	return hops
}

// Hop is one switch traversal on a path.
type Hop struct {
	Stage   int
	Switch  int
	InPort  int
	OutPort int
}
