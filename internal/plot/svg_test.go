package plot

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"damq/internal/stats"
)

func sample() []stats.Series {
	var a, b stats.Series
	a.Name = "FIFO/4"
	b.Name = "DAMQ/4"
	for _, p := range []stats.Point{
		{Offered: 0.2, Throughput: 0.2, Latency: 45},
		{Offered: 0.5, Throughput: 0.5, Latency: 90},
		{Offered: 0.8, Throughput: 0.51, Latency: 5000},
	} {
		a.Add(p)
	}
	for _, p := range []stats.Point{
		{Offered: 0.2, Throughput: 0.2, Latency: 44},
		{Offered: 0.7, Throughput: 0.7, Latency: 120},
	} {
		b.Add(p)
	}
	return []stats.Series{a, b}
}

func TestSVGWellFormedXML(t *testing.T) {
	out := SVG(sample(), "Figure 3 <test> & co")
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
}

func TestSVGContainsSeries(t *testing.T) {
	out := SVG(sample(), "")
	for _, want := range []string{"FIFO/4", "DAMQ/4", "<polyline", "<circle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Two polylines, one per series.
	if n := strings.Count(out, "<polyline"); n != 2 {
		t.Fatalf("polylines = %d", n)
	}
}

func TestSVGDefaults(t *testing.T) {
	out := SVG(nil, "")
	if !strings.Contains(out, `width="720"`) || !strings.Contains(out, `height="480"`) {
		t.Fatal("default dimensions not applied")
	}
	if !strings.Contains(out, "Latency vs throughput") {
		t.Fatal("default title missing")
	}
}

func TestSVGLatencyClipped(t *testing.T) {
	// The 5000-latency point must be clipped to the cap, i.e. plotted at
	// the top of the plot area (y == margin), not off-canvas.
	out := SVG(sample(), "")
	if strings.Contains(out, "cy=\"-") {
		t.Fatal("point drawn above the canvas")
	}
	if !strings.Contains(out, fmt.Sprintf(`cy="%.1f"`, margin)) {
		t.Fatal("clipped point not drawn at the top of the plot area")
	}
}

func TestEscape(t *testing.T) {
	if escape("a<b>&c") != "a&lt;b&gt;&amp;c" {
		t.Fatalf("escape = %q", escape("a<b>&c"))
	}
}
