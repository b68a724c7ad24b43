// Package omega builds the Omega multistage interconnection network
// (Lawrie 1975) used in the paper's Section 4.2 evaluation: a k-ary
// N-input network with log_k(N) stages of k×k switches, connected by the
// perfect shuffle.
//
// The paper simulates a 64×64 Omega network of 4×4 switches (3 stages of
// 16 switches). This package provides topology construction, the shuffle
// wiring, and destination-digit routing for k up to 256 and
// N = k^stages. New computes the wiring once into two tables, a digit
// table per stage and one hop table, and every route query after it is a
// lookup; Shuffle and InverseShuffle stay arithmetic and define them.
package omega

import "fmt"

// Topology describes one Omega network instance. Its wiring is built
// once, as lookup tables, the way the ComCoBB router routes from tables
// instead of computing each hop: simulators route every packet, every
// hop, through the tables without a division.
type Topology struct {
	k        int // switch radix (ports per switch)
	stages   int // number of switch stages
	inputs   int // network inputs = k^stages
	switches int // switches per stage = inputs / k
	// digits[s][dest] is the output port stage s routes dest to: the
	// s-th most significant base-k digit of dest. One backing array
	// holds every stage's row.
	digits [][]uint8
	// hop[line] is the (switch, port) the perfect shuffle wires line to
	// at the next stage boundary; line is a network input or, as
	// sw*k+out, an output of a switch.
	hop []wire
}

// wire is one end of a shuffle link: input port port of switch sw.
type wire struct{ sw, port int32 }

// maxRadix is the largest switch radix a Topology routes: a route digit
// is stored in one byte.
const maxRadix = 256

// Stages returns the stage count of an inputs-wide Omega network of k×k
// switches, checking the shape without building any table: k must be in
// [2, maxRadix] and inputs a positive power of k.
func Stages(k, inputs int) (int, error) {
	if k < 2 {
		return 0, fmt.Errorf("omega: radix must be >= 2, got %d", k)
	}
	if k > maxRadix {
		return 0, fmt.Errorf("omega: radix %d exceeds %d, the largest a byte route digit holds", k, maxRadix)
	}
	if inputs < k {
		return 0, fmt.Errorf("omega: inputs %d smaller than radix %d", inputs, k)
	}
	stages := 0
	for n := 1; n < inputs; n *= k {
		if n > inputs/k { // n*k would step past inputs without meeting it
			return 0, fmt.Errorf("omega: inputs %d is not a power of radix %d", inputs, k)
		}
		stages++
	}
	return stages, nil
}

// New returns the topology for an inputs-wide Omega network of k×k
// switches and builds its digit and hop tables. inputs must be a
// positive power of k (see Stages).
func New(k, inputs int) (*Topology, error) {
	stages, err := Stages(k, inputs)
	if err != nil {
		return nil, err
	}
	t := &Topology{k: k, stages: stages, inputs: inputs, switches: inputs / k}
	t.digits = make([][]uint8, stages)
	all := make([]uint8, stages*inputs)
	for s, div := stages-1, 1; s >= 0; s, div = s-1, div*k {
		row := all[s*inputs : (s+1)*inputs : (s+1)*inputs]
		for dest := range row {
			row[dest] = uint8(dest / div % k)
		}
		t.digits[s] = row
	}
	t.hop = make([]wire, inputs)
	for line := range t.hop {
		sw, port := SwitchPort(k, t.Shuffle(line))
		t.hop[line] = wire{int32(sw), int32(port)}
	}
	return t, nil
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
	w := t.hop[src]
	return int(w.sw), int(w.port)
}

// NextStage returns the stage s+1 switch and input port wired to output
// port out of switch sw in stage s. The inter-stage wiring is the same
// perfect shuffle on line numbers.
func (t *Topology) NextStage(sw, out int) (nsw, nport int) {
	w := t.hop[sw*t.k+out]
	return int(w.sw), int(w.port)
}

// RouteDigit returns the output port a packet for destination dest must
// take at stage (0-based). Omega routing is destination-digit routing:
// stage s consumes the s-th most significant base-k digit of dest.
func (t *Topology) RouteDigit(dest, stage int) int {
	return int(t.digits[stage][dest])
}

// Digits returns stage's digit table: entry dest is RouteDigit(dest,
// stage). Callers that route many packets through one stage index it
// directly; it is shared, not copied, and must not be modified.
func (t *Topology) Digits(stage int) []uint8 { return t.digits[stage] }

// LastStageOutput returns the network output line reached from output
// port out of switch sw in the last stage.
func (t *Topology) LastStageOutput(sw, out int) int {
	return Line(t.k, sw, out)
}
