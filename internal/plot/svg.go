// Package plot renders latency-vs-throughput sweeps as standalone SVG
// documents, using only the standard library. It exists so Figure 3 can
// be regenerated as an actual figure, not just an ASCII sketch: the
// omegasim CLI writes the SVG next to its text output.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"damq/internal/stats"
)

// Figure geometry and scaling. Latencies above latencyCap clip to the
// top of the plot area, so a saturated curve's blow-up stays on the page.
const (
	width, height = 720, 480
	latencyCap    = 300.0
	defaultTitle  = "Latency vs throughput"
	xLabel        = "throughput (packets/input/cycle)"
	yLabel        = "latency (clock cycles)"
)

// palette holds distinguishable stroke colors for up to eight series.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

const margin = 56.0

// SVG renders the series into one SVG document headed by title ("Latency
// vs throughput" when empty).
func SVG(series []stats.Series, title string) string {
	if title == "" {
		title = defaultTitle
	}
	w, h := float64(width), float64(height)
	plotW, plotH := w-2*margin, h-2*margin

	maxThr := 0.0
	minLat := math.Inf(1)
	for _, s := range series {
		for _, p := range s.Points {
			if p.Throughput > maxThr {
				maxThr = p.Throughput
			}
			if p.Latency < minLat {
				minLat = p.Latency
			}
		}
	}
	if maxThr <= 0 {
		maxThr = 1
	}
	if math.IsInf(minLat, 1) {
		minLat = 0
	}
	maxLat := latencyCap

	// Round the x-axis up to a tidy 0.1 boundary.
	maxThr = math.Ceil(maxThr*10) / 10

	x := func(thr float64) float64 { return margin + thr/maxThr*plotW }
	y := func(lat float64) float64 {
		if lat > maxLat {
			lat = maxLat
		}
		if lat < minLat {
			lat = minLat
		}
		return margin + plotH - (lat-minLat)/(maxLat-minLat)*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)

	// Axes.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
		margin, margin+plotH, margin+plotW, margin+plotH)
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
		margin, margin, margin, margin+plotH)

	// X ticks every 0.1.
	for t := 0.0; t <= maxThr+1e-9; t += 0.1 {
		px := x(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
			px, margin+plotH, px, margin+plotH+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle">%.1f</text>`,
			px, margin+plotH+18, t)
	}
	// Y ticks: 5 divisions.
	for i := 0; i <= 5; i++ {
		lat := minLat + (maxLat-minLat)*float64(i)/5
		py := y(lat)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`,
			margin-5, py, margin, py)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="end">%.0f</text>`,
			margin-8, py+4, lat)
	}

	// Labels and title.
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="13" text-anchor="middle">%s</text>`,
		margin+plotW/2, h-10, escape(xLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-size="13" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`,
		margin+plotH/2, margin+plotH/2, escape(yLabel))
	fmt.Fprintf(&b, `<text x="%.1f" y="24" font-size="15" text-anchor="middle" font-weight="bold">%s</text>`,
		w/2, escape(title))

	// Series: sort points by throughput for a sane polyline, draw line +
	// markers.
	for si, s := range series {
		color := palette[si%len(palette)]
		pts := append([]stats.Point(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Throughput < pts[j].Throughput })
		var path []string
		for _, p := range pts {
			path = append(path, fmt.Sprintf("%.1f,%.1f", x(p.Throughput), y(p.Latency)))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`,
			strings.Join(path, " "), color)
		for _, p := range pts {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`,
				x(p.Throughput), y(p.Latency), color)
		}
		// Legend entry.
		ly := margin + 16 + float64(si)*16
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`,
			margin+12, ly, margin+36, ly, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12">%s</text>`,
			margin+42, ly+4, escape(s.Name))
	}

	b.WriteString(`</svg>`)
	return b.String()
}

// escape makes text safe for SVG.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
