package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into the simulator
// packages, in memory, and writes them out when the run ends. A span has
// a name, start and end (ns since the tracer started), its parent span
// and the workload. Calls made millions of times (the standalone switch's
// Arbitrate/Offer/PopGrant) are folded into per-name log-bucket
// histograms instead of being stored one by one.
//
// Span names starting with "bench." mark the harness's own structure
// (the workload, a switch cell's loop, a twin's batch); every other name
// is a call into a simulator layer and counts as explained time.
//
// A nil *tracer is valid and records nothing, which is what untraced
// runs use.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
	folds    []*fold
	clockNs  float64 // what one timed region adds to the loop around it
	readNs   float64 // what one timed region adds to the duration it records
}

type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Self     int64  `json:"self_ns"`
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now()}
	t.clockNs, t.readNs = t.measureClock()
	return t
}

// now is the trace clock: monotonic ns since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Start: t.now(), Parent: t.parent()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records an already finished span under the innermost open one.
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Start: start, End: end, Parent: t.parent()})
}

// fold returns the histogram that folds calls named name under the
// innermost open span.
func (t *tracer) fold(name string) *fold {
	p := t.parent()
	for _, f := range t.folds {
		if f.Name == name && f.Parent == p {
			return f
		}
	}
	f := &fold{Name: name, Parent: p}
	t.folds = append(t.folds, f)
	return f
}

// measureClock times empty regions: two clock reads and a histogram add.
// It returns what one region adds to the loop around it (clockNs, the
// median of five batches) and what it adds to the duration it records
// (readNs, the mean reading of an empty region, about one clock read).
// Self times subtract readNs per recorded region; the overhead estimate
// of a traced run counts clockNs per region.
func (t *tracer) measureClock() (clockNs, readNs float64) {
	const n = 20000
	var f fold
	var runs []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			c := t.now()
			f.add(t.now() - c)
		}
		runs = append(runs, float64(time.Since(start))/n)
	}
	return median(runs), float64(f.Sum) / float64(f.Count)
}

// within reports whether span i is anc or one of its descendants; every
// span is within -1.
func (t *tracer) within(i, anc int) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if i == anc {
			return true
		}
	}
	return anc < 0
}

// regionsUnder counts the timed regions, spans and folded calls,
// recorded below span anc (-1 for all of them).
func (t *tracer) regionsUnder(anc int) int64 {
	var n int64
	for i := range t.spans {
		if i != anc && t.within(i, anc) {
			n++
		}
	}
	for _, f := range t.folds {
		if t.within(f.Parent, anc) {
			n += f.Count
		}
	}
	return n
}

// layerNs sums the self time, less the clock read, of the layer spans
// and folds below span anc that match key: every layer call for "", else
// the calls named key or key/<qualifier>. Harness spans ("bench.") are
// never layer time.
func (t *tracer) layerNs(key string, anc int) float64 {
	match := func(name string) bool {
		return key == "" || name == key || strings.HasPrefix(name, key+"/")
	}
	total := 0.0
	for i, s := range t.spans {
		if i != anc && t.within(i, anc) && match(s.Name) && !strings.HasPrefix(s.Name, "bench.") {
			total += max(0, float64(s.Self)-t.readNs)
		}
	}
	for _, f := range t.folds {
		if t.within(f.Parent, anc) && match(f.Name) {
			total += f.netNs(t.readNs)
		}
	}
	return total
}

// computeSelf fills in every span's self time: its duration minus the
// durations of its child spans and the sums of the calls folded under it.
func computeSelf(spans []span, folds []*fold) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
	for _, f := range folds {
		if f.Parent >= 0 {
			spans[f.Parent].Self -= f.Sum
		}
	}
}

// write computes self times and writes the spans and folds as JSON.
func (t *tracer) write(path string) error {
	computeSelf(t.spans, t.folds)
	type foldOut struct {
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		Count  int64  `json:"count"`
		Sum    int64  `json:"sum_ns"`
		P50    int64  `json:"p50_ns"`
		P99    int64  `json:"p99_ns"`
	}
	out := struct {
		Workload string    `json:"workload"`
		ClockNs  float64   `json:"clock_ns"`
		ReadNs   float64   `json:"read_ns"`
		Spans    []span    `json:"spans"`
		Folds    []foldOut `json:"folds"`
	}{Workload: t.workload, ClockNs: t.clockNs, ReadNs: t.readNs, Spans: t.spans}
	for _, f := range t.folds {
		out.Folds = append(out.Folds, foldOut{f.Name, f.Parent, f.Count, f.Sum, f.quantile(0.5), f.quantile(0.99)})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// fold is a log-bucket histogram of call durations: four buckets per
// power of two, so quantiles are exact to within 12.5%.
type fold struct {
	Name    string
	Parent  int
	Count   int64
	Sum     int64
	buckets [256]int64
}

func (f *fold) add(ns int64) {
	f.Count++
	f.Sum += ns
	f.buckets[bucketOf(ns)]++
}

// netNs is the folded time less the clock read each call's reading holds.
func (f *fold) netNs(readNs float64) float64 {
	return max(0, float64(f.Sum)-float64(f.Count)*readNs)
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (f *fold) quantile(q float64) int64 {
	if f.Count == 0 {
		return 0
	}
	rank := int64(q * float64(f.Count-1))
	var seen int64
	for i, n := range f.buckets {
		seen += n
		if seen > rank {
			lo, width := bucketRange(i)
			return lo + width/2
		}
	}
	return 0
}

// bucketOf maps a duration to its bucket: values below 4 get their own
// bucket, larger ones are keyed by bit length and the two bits after
// the leading one.
func bucketOf(ns int64) int {
	if ns < 4 {
		return int(max(ns, 0))
	}
	n := bits.Len64(uint64(ns))
	return (n-2)*4 + int(uint64(ns)>>(n-3))&3
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width int64) {
	if i < 4 {
		return int64(i), 1
	}
	n := i/4 + 2
	return int64(4+i%4) << (n - 3), 1 << (n - 3)
}
