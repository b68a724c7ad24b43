package obs

import (
	"encoding/json"
	"fmt"

	"damq/internal/checkpoint"
)

// IntervalRecord is one point of the optional per-interval time series.
// All fields are cumulative totals as of Cycle; consumers difference
// adjacent records to recover per-interval rates (throughput, mean
// latency), which is how Figure-3-style curves are regenerated from a
// single instrumented run.
type IntervalRecord struct {
	Cycle        int64 `json:"cycle"`
	Generated    int64 `json:"generated"`
	Injected     int64 `json:"injected"`
	Delivered    int64 `json:"delivered"`
	Discarded    int64 `json:"discarded"`
	InFlight     int64 `json:"in_flight"`
	Backlog      int64 `json:"backlog"`
	LatencySum   int64 `json:"latency_sum"`
	LatencyCount int64 `json:"latency_count"`
}

// Observer owns a registry and an optional time series. One observer
// instruments one simulation; attach it via damq.WithObserver (facade)
// or the subsystem SetObserver/SetMetrics hooks (internal).
type Observer struct {
	reg      *Registry
	interval int64
	// last is the cycle of the last IntervalRecord, -1 before the first.
	// It lives here, not in the simulator, so re-attaching an observer
	// keeps the series on its cadence.
	last   int64
	series []IntervalRecord
}

// NewObserver returns an observer with an empty registry and the time
// series disabled.
func NewObserver() *Observer {
	return &Observer{reg: NewRegistry(), last: -1}
}

// Registry exposes the observer's instrument registry.
func (o *Observer) Registry() *Registry { return o.reg }

// SetInterval enables the time series: instrumented simulators append
// an IntervalRecord every n measured cycles. n <= 0 disables it.
func (o *Observer) SetInterval(n int64) {
	if n < 0 {
		n = 0
	}
	o.interval = n
}

// Interval returns the configured sampling interval (0 = disabled).
func (o *Observer) Interval() int64 { return o.interval }

// Due reports whether a record at cycle keeps the series on its
// cadence: the series is enabled, and either nothing has been recorded
// yet or the last record is at least Interval cycles back.
func (o *Observer) Due(cycle int64) bool {
	return o.interval > 0 && (o.last < 0 || cycle-o.last >= o.interval)
}

// RecordInterval appends one time-series point and makes its cycle the
// sampling position Due measures from. Amortized append; only called
// every Interval cycles, never on the per-cycle hot path when the
// series is disabled.
func (o *Observer) RecordInterval(rec IntervalRecord) {
	o.series = append(o.series, rec)
	o.last = rec.Cycle
}

// Series returns the recorded time series (nil when disabled).
func (o *Observer) Series() []IntervalRecord { return o.series }

// HistogramSnapshot is the exported form of a Histogram. Buckets are
// trimmed of trailing zeros so sparse wide histograms (e.g. 4096-bucket
// latency) stay compact in JSON; Total and Sum are preserved exactly,
// and Total always equals trimmed-bucket sum plus Overflow.
type HistogramSnapshot struct {
	Width    int64   `json:"width"`
	Buckets  []int64 `json:"buckets"`
	Overflow int64   `json:"overflow"`
	Total    int64   `json:"total"`
	Sum      int64   `json:"sum"`
}

// Mean returns the sample mean of the snapshotted histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// Snapshot is the stable JSON export shape: name-keyed instrument maps
// (keys sort on marshal, so deterministic runs produce byte-identical
// snapshots) plus the optional time series.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Series     []IntervalRecord             `json:"series,omitempty"`
}

// Snapshot captures every registered instrument and the time series.
func (o *Observer) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64, len(o.reg.counters)),
		Gauges:     make(map[string]int64, len(o.reg.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(o.reg.hists)),
	}
	for name, c := range o.reg.counters {
		s.Counters[name] = c.v
	}
	for name, g := range o.reg.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range o.reg.hists {
		buckets := h.Buckets()
		n := len(buckets)
		for n > 0 && buckets[n-1] == 0 {
			n--
		}
		s.Histograms[name] = HistogramSnapshot{
			Width:    h.Width(),
			Buckets:  buckets[:n:n],
			Overflow: h.Overflow(),
			Total:    h.Total(),
			Sum:      h.Sum(),
		}
	}
	if len(o.series) > 0 {
		s.Series = append([]IntervalRecord(nil), o.series...)
	}
	return s
}

// Counter looks up an exported counter by name.
func (s *Snapshot) Counter(name string) (int64, bool) {
	v, ok := s.Counters[name]
	return v, ok
}

// Gauge looks up an exported gauge by name.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	v, ok := s.Gauges[name]
	return v, ok
}

// Histogram looks up an exported histogram by name.
func (s *Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// Encode marshals the snapshot as indented JSON with a trailing
// newline — the exact bytes the CLIs write for -metrics and the golden
// test pins.
func (s *Snapshot) Encode() ([]byte, error) {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: encode snapshot: %w", err)
	}
	return append(raw, '\n'), nil
}

// DecodeSnapshot parses a snapshot produced by Encode.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return &s, nil
}

// Walk walks the observer through a checkpoint codec (DESIGN.md §13):
// the interval, the last sampled cycle, every counter, gauge and
// histogram in name order, and the interval series. Decoding reads into
// the instruments already registered, so the stream must list exactly
// those, in name order, with their histogram shapes. It rejects what no
// run up to cycle now produces: a negative interval or counter, a last
// sample outside [-1, now], and records whose cycles do not increase or
// pass now. A stream error stays on c.
func (o *Observer) Walk(c *checkpoint.Codec, now int64) error {
	c.I64(&o.interval)
	c.I64(&o.last)
	if err := walkNamed(c, "counter", o.reg.counters, func(k *Counter) error {
		if c.I64(&k.v); c.Decoding() && k.v < 0 {
			return fmt.Errorf("negative count %d", k.v)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := walkNamed(c, "gauge", o.reg.gauges, func(g *Gauge) error {
		c.I64(&g.v)
		return nil
	}); err != nil {
		return err
	}
	if err := walkNamed(c, "histogram", o.reg.hists, func(h *Histogram) error {
		return h.Walk(c)
	}); err != nil {
		return err
	}
	n := len(o.series)
	if c.Count(&n, 9*8); c.Decoding() {
		o.series = make([]IntervalRecord, n)
	}
	for i := range o.series {
		r := &o.series[i]
		for _, v := range []*int64{&r.Cycle, &r.Generated, &r.Injected, &r.Delivered,
			&r.Discarded, &r.InFlight, &r.Backlog, &r.LatencySum, &r.LatencyCount} {
			c.I64(v)
		}
	}
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	if o.interval < 0 {
		return fmt.Errorf("obs: negative interval %d", o.interval)
	}
	// A last sample or record past the clock would silently suppress
	// the resumed run's records.
	if o.last < -1 || o.last > now {
		return fmt.Errorf("obs: last interval sample at cycle %d outside [-1, %d]", o.last, now)
	}
	for i, r := range o.series {
		if i > 0 && r.Cycle <= o.series[i-1].Cycle {
			return fmt.Errorf("obs: interval record %d at cycle %d does not follow cycle %d", i, r.Cycle, o.series[i-1].Cycle)
		}
		if r.Cycle > now {
			return fmt.Errorf("obs: interval record %d at cycle %d is past cycle %d", i, r.Cycle, now)
		}
	}
	return nil
}

// walkNamed walks the instruments of m in name order, each as its name
// followed by what walk walks. Decoding requires the stream to name
// exactly m's instruments in that order.
func walkNamed[V any](c *checkpoint.Codec, kind string, m map[string]V, walk func(V) error) error {
	names := sortedKeys(m)
	if n := c.FixedLen(len(names)); n != len(names) {
		return fmt.Errorf("obs: %d checkpointed %ss for %d registered", n, kind, len(names))
	}
	for _, want := range names {
		name := want
		if c.String(&name); c.Err() != nil {
			return nil
		}
		if name != want {
			return fmt.Errorf("obs: checkpointed %s %q where this observer registers %q", kind, name, want)
		}
		if err := walk(m[name]); err != nil {
			return fmt.Errorf("obs: checkpointed %s %q: %w", kind, name, err)
		}
	}
	return nil
}

// Adopt overwrites o's interval, sampling position, series and the
// value of every instrument registered in from with from's, registering
// any o lacks. A restored simulation decodes its checkpointed observer
// into a scratch one and hands it to the observer the caller attaches
// this way, so the resumed run's snapshot continues the uninterrupted
// run's.
func (o *Observer) Adopt(from *Observer) {
	o.interval, o.last = from.interval, from.last
	o.series = append(o.series[:0], from.series...)
	for name, k := range from.reg.counters {
		o.reg.Counter(name).v = k.v
	}
	for name, g := range from.reg.gauges {
		o.reg.Gauge(name).v = g.v
	}
	for name, h := range from.reg.hists {
		// Same name, so the same shape (Histogram panics otherwise), and
		// from's contents already passed Restore: this cannot fail.
		b := h.Buckets()
		_ = o.reg.Histogram(name, len(b), h.Width()).Restore(b, h.Overflow(), h.Total(), h.Sum())
	}
}
