// Package stats provides the statistical machinery used by the simulators:
// streaming summaries (Welford) with normal-approximation confidence
// intervals, latency-vs-throughput series, saturation detection for
// reproducing the paper's "saturation throughput" columns, and Histogram,
// the fixed-width integer histogram behind both netsim's latency
// quantiles and every obs instrument histogram.
package stats

import (
	"fmt"
	"math"
	"sort"

	"damq/internal/checkpoint"
)

// Summary accumulates a stream of observations with numerically stable
// (Welford) mean and variance. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN records the same observation value n times.
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Merge folds other into s, as if all of other's observations had been
// added to s directly (Chan et al. parallel variance combination).
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	delta := other.mean - s.mean
	total := s.n + other.n
	s.m2 += other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(total)
	s.mean += delta * float64(other.n) / float64(total)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n = total
}

// Walk walks the accumulator through a checkpoint codec (DESIGN.md §13):
// restored, it continues bit for bit, because Welford's update is a pure
// function of (state, x). Decoding rejects a negative count; a stream
// error stays on c.
func (s *Summary) Walk(c *checkpoint.Codec) error {
	c.I64(&s.n)
	c.F64(&s.mean)
	c.F64(&s.m2)
	c.F64(&s.min)
	c.F64(&s.max)
	if c.Decoding() && s.n < 0 {
		return fmt.Errorf("stats: summary with negative count %d", s.n)
	}
	return nil
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the minimum observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the maximum observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean, using the normal critical value (observation counts in the
// simulators are large enough that the t correction is negligible).
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String formats the summary for human-readable experiment logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g max=%.4g",
		s.n, s.mean, s.CI95(), s.StdDev(), s.min, s.max)
}

// Histogram is a fixed-width integer bucket histogram: bucket b counts
// samples in [b*width, (b+1)*width), and samples past the last bucket are
// counted in Overflow, so Total always equals the number of samples
// observed. It is the simulators' one histogram: netsim's
// Result.LatencyHist is one, and so is every obs registry histogram.
// Buckets are allocated once by NewHistogram; Observe and ObserveN never
// allocate.
type Histogram struct {
	width    int64
	buckets  []int64
	overflow int64
	total    int64
	sum      int64
}

// NewHistogram returns a histogram with the given number of buckets each
// covering width units.
func NewHistogram(buckets int, width int64) *Histogram {
	if buckets <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: histogram needs positive buckets and width (got %d, %d)", buckets, width))
	}
	return &Histogram{width: width, buckets: make([]int64, buckets)}
}

// Observe records one sample. Negative samples clamp to zero (they
// indicate a caller bug but must not corrupt bucket indexing).
//
// damqvet:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.total++
	h.sum += v
	b := v / h.width
	if b >= int64(len(h.buckets)) {
		h.overflow++
		return
	}
	h.buckets[b]++
}

// ObserveN records n samples of value v: exactly what n Observe(v) calls
// would record, in one step. Shard-local tallies (value → count) fold
// into a histogram with it.
//
// damqvet:hotpath
func (h *Histogram) ObserveN(v, n int64) {
	if v < 0 {
		v = 0
	}
	h.total += n
	h.sum += v * n
	b := v / h.width
	if b >= int64(len(h.buckets)) {
		h.overflow += n
		return
	}
	h.buckets[b] += n
}

// Merge folds other into h bucket by bucket, as if all of other's
// samples had been observed by h directly. The combination is exact
// integer addition, so merging per-shard histograms in any fixed order
// reproduces the serial histogram. Both histograms must share the same
// bucket count and width.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if len(h.buckets) != len(other.buckets) || h.width != other.width {
		panic(fmt.Sprintf("stats: merging histogram %dx%d into %dx%d",
			len(other.buckets), other.width, len(h.buckets), h.width))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
}

// Total returns the number of samples observed.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Width returns the bucket width.
func (h *Histogram) Width() int64 { return h.width }

// Buckets returns a copy of the bucket counts (excluding overflow).
func (h *Histogram) Buckets() []int64 { return append([]int64(nil), h.buckets...) }

// Overflow returns the overflow bucket count.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Quantile returns an approximation of the q-quantile (0<=q<=1) assuming
// samples sit at their bucket midpoints. Overflow samples are treated as
// lying at the overflow boundary.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return (float64(i) + 0.5) * float64(h.width)
		}
	}
	return float64(len(h.buckets)) * float64(h.width)
}

// Restore overwrites the histogram's contents with previously captured
// values, for checkpoint restore. The bucket count must match the
// histogram's, and the contents must pass CheckContents — a stream that
// disagrees is corrupt.
func (h *Histogram) Restore(buckets []int64, overflow, total, sum int64) error {
	if len(buckets) != len(h.buckets) {
		return fmt.Errorf("stats: %d restored buckets for a %d-bucket histogram", len(buckets), len(h.buckets))
	}
	if err := CheckContents(h.width, buckets, overflow, total, sum); err != nil {
		return err
	}
	copy(h.buckets, buckets)
	h.overflow, h.total, h.sum = overflow, total, sum
	return nil
}

// Walk walks the histogram through a checkpoint codec (DESIGN.md §13):
// width, buckets, overflow, total and sum. Decoding admits only the
// histogram's own width and bucket count and then restores through
// Restore, so contents CheckContents refuses leave the histogram as it
// was; a stream error stays on c.
func (h *Histogram) Walk(c *checkpoint.Codec) error {
	width, buckets := h.width, h.buckets
	overflow, total, sum := h.overflow, h.total, h.sum
	c.I64(&width)
	c.I64s(&buckets)
	c.I64(&overflow)
	c.I64(&total)
	c.I64(&sum)
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	if width != h.width {
		return fmt.Errorf("stats: histogram of width %d restored into one of width %d", width, h.width)
	}
	return h.Restore(buckets, overflow, total, sum)
}

// CheckContents reports whether Observe calls on a histogram of the
// given bucket width could have produced these contents: non-negative
// counts that add up (with overflow) to total, and a sum each sample's
// bucket can account for. Bucket b holds samples in [b*width,
// (b+1)*width), and overflow samples are at least len(buckets)*width,
// so the sum is bounded below always and above when overflow is 0.
func CheckContents(width int64, buckets []int64, overflow, total, sum int64) error {
	var n int64
	for _, c := range buckets {
		if c < 0 {
			return fmt.Errorf("stats: negative bucket count %d", c)
		}
		if n += c; n < 0 {
			return fmt.Errorf("stats: bucket counts overflow")
		}
	}
	if overflow < 0 || n+overflow != total {
		return fmt.Errorf("stats: histogram total %d does not match bucket sum %d", total, n+overflow)
	}
	// The bounds are summed in float64: exact for every reachable sum
	// (counts and values far below 2^53) and immune to int64 wrap on
	// hostile counts.
	var lo, hi float64
	for b, c := range buckets {
		lo += float64(c) * float64(int64(b)*width)
		hi += float64(c) * float64(int64(b+1)*width-1)
	}
	lo += float64(overflow) * float64(int64(len(buckets))*width)
	if float64(sum) < lo {
		return fmt.Errorf("stats: histogram sum %d below the %.0f its buckets hold", sum, lo)
	}
	if overflow == 0 && float64(sum) > hi {
		return fmt.Errorf("stats: histogram sum %d above the %.0f its buckets can hold", sum, hi)
	}
	return nil
}

// Point is one (throughput, latency) measurement on a load sweep.
type Point struct {
	Offered    float64 // offered load, fraction of link capacity
	Throughput float64 // delivered throughput, fraction of link capacity
	Latency    float64 // mean latency, clock cycles
	Discarded  float64 // fraction of generated packets discarded (discarding protocol)
}

// Series is an ordered set of sweep points, used to render Figure-3-style
// latency/throughput curves and to locate saturation.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point, keeping the series sorted by offered load.
func (s *Series) Add(p Point) {
	s.Points = append(s.Points, p)
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Offered < s.Points[j].Offered })
}

// SaturationThroughput estimates the saturation throughput of a series as
// the maximum delivered throughput observed across the sweep. In a blocking
// network the delivered throughput plateaus at saturation while latency
// diverges, so the plateau height is the saturation throughput — the same
// definition Pfister and Norton use for their latency/throughput graphs.
func (s *Series) SaturationThroughput() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Throughput > max {
			max = p.Throughput
		}
	}
	return max
}

// LatencyAt returns the latency at the sweep point whose delivered
// throughput is closest to the requested value, interpolating linearly
// between the two bracketing points when possible. ok is false if the
// series is empty.
func (s *Series) LatencyAt(throughput float64) (latency float64, ok bool) {
	if len(s.Points) == 0 {
		return 0, false
	}
	// Points are sorted by offered load; throughput is monotone below
	// saturation. Find bracketing pair by throughput.
	pts := s.Points
	if throughput <= pts[0].Throughput {
		return pts[0].Latency, true
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if throughput <= b.Throughput && b.Throughput > a.Throughput {
			f := (throughput - a.Throughput) / (b.Throughput - a.Throughput)
			return a.Latency + f*(b.Latency-a.Latency), true
		}
	}
	return pts[len(pts)-1].Latency, true
}
