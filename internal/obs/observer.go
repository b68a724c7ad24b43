package obs

import (
	"encoding/json"
	"fmt"
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
	series   []IntervalRecord
}

// NewObserver returns an observer with an empty registry and the time
// series disabled.
func NewObserver() *Observer {
	return &Observer{reg: NewRegistry()}
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

// RecordInterval appends one time-series point. Amortized append; only
// called every Interval cycles, never on the per-cycle hot path when
// the series is disabled.
func (o *Observer) RecordInterval(rec IntervalRecord) {
	o.series = append(o.series, rec)
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

// RestoreSeries replaces the recorded interval series with a previously
// captured one, for checkpoint restore: the resumed run appends to the
// restored prefix so the final snapshot's time series is identical to an
// uninterrupted run's.
func (o *Observer) RestoreSeries(recs []IntervalRecord) {
	o.series = append(o.series[:0], recs...)
}
