package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/netsim"
	"damq/internal/sw"
)

func TestGridRunAndCSV(t *testing.T) {
	g := Grid{
		Kinds:      []buffer.Kind{buffer.FIFO, buffer.DAMQ, buffer.SAMQ},
		Loads:      []float64{0.2, 0.4},
		Capacities: []int{4, 6}, // 6 invalid for SAMQ -> skipped
		Protocol:   sw.Blocking,
		Policy:     arbiter.Smart,
		Traffic:    netsim.Uniform,
	}
	points, err := g.Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: 2 caps x 2 loads; DAMQ: 4; SAMQ: only cap 4 -> 2. Total 10.
	if len(points) != 10 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 || p.Latency <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.Kind == buffer.SAMQ && p.Capacity == 6 {
			t.Fatal("invalid SAMQ capacity not skipped")
		}
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "kind,capacity,load,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "FIFO,4,0.2,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestGridBurstyAndHotspot(t *testing.T) {
	g := Grid{
		Kinds:      []buffer.Kind{buffer.DAMQ},
		Loads:      []float64{0.3},
		Capacities: []int{4},
		Protocol:   sw.Blocking,
		Policy:     arbiter.Smart,
		Traffic:    netsim.Bursty,
		MeanBurst:  3,
	}
	if _, err := g.Run(tiny); err != nil {
		t.Fatalf("bursty grid: %v", err)
	}
	g.Traffic = netsim.HotSpot
	g.HotFraction = 0.05
	if _, err := g.Run(tiny); err != nil {
		t.Fatalf("hotspot grid: %v", err)
	}
}

// TestGridSkipsIndivisibleCapacities: a cell whose buffer kind cannot
// divide its capacity among its queues is skipped, whatever the reason
// (SAMQ needs a multiple of the radix, FB of its two classes), while a
// non-positive capacity fails the sweep.
func TestGridSkipsIndivisibleCapacities(t *testing.T) {
	g := Grid{
		Kinds:      []buffer.Kind{buffer.SAMQ, buffer.FB},
		Loads:      []float64{0.1},
		Capacities: []int{3, 4},
		Protocol:   sw.Discarding,
		Policy:     arbiter.Smart,
		Traffic:    netsim.Uniform,
	}
	points, err := g.Run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || g.Points() != 2 {
		t.Fatalf("%d points (Points() = %d), want the two 4-slot cells: %+v", len(points), g.Points(), points)
	}
	for i, kind := range g.Kinds {
		if p := points[i]; p.Kind != kind || p.Capacity != 4 {
			t.Errorf("point %d is %v at %d slots, want %v at 4", i, p.Kind, p.Capacity, kind)
		}
	}
	for _, c := range []int{0, -4} {
		g.Capacities = []int{c, 4}
		if _, err := g.Run(tiny); !errors.Is(err, cfgerr.ErrBadCapacity) {
			t.Errorf("capacity %d: err = %v, want ErrBadCapacity", c, err)
		}
	}
}
