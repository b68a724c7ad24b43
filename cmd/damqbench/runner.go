package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// scale fixes a run's length. Every workload is sized for a 10-second
// measurement; -seconds scales the stepped workloads' cycle counts in
// proportion, and -smoke cuts every run to about a hundredth.
type scale struct {
	name   string  // digest key: "s10" at -seconds 10, "smoke" under -smoke
	factor float64 // run length relative to the 10-second sizing
}

func newScale(seconds int, smoke bool) scale {
	if smoke {
		return scale{name: "smoke", factor: 0.01}
	}
	return scale{name: "s" + strconv.Itoa(seconds), factor: float64(seconds) / 10}
}

func (sc scale) smoke() bool { return sc.name == "smoke" }

// cycles scales n and rounds it to a whole number of batches, at least one.
func (sc scale) cycles(n, batch int64) int64 {
	c := int64(math.Round(float64(n)*sc.factor/float64(batch))) * batch
	return max(c, batch)
}

// childResult is what a workload's child process reports to the parent.
// Info holds context that is not a declared metric: the measured host
// seconds before calibration, the calibration's slowdown factor, and the
// peak resident memory.
type childResult struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	Info     map[string]float64 `json:"info"`
	Checks   []check            `json:"checks"`
	Digests  map[string]string  `json:"digests"`
}

// runner carries one workload run inside its child process: the inputs,
// the tracer (nil when untraced), the checks and the metrics.
type runner struct {
	seed      uint64
	sc        scale
	setupOnly bool // build the simulators, then stop: the parent times set-up
	updating  bool // -update-digests: record digests without comparing them
	tr        *tracer
	cal       calibrator
	digests   digestFile
	res       childResult

	root, timed int           // tracer span ids
	timedStart  time.Time     // start of the timed phase
	excluded    time.Duration // time inside the timed phase spent on twins and calibration
	calDue      time.Duration // workload time since the last calibration sample
	wall        float64       // timed-phase seconds, excluded time left out
	elapsed     float64       // timed-phase seconds, all of it
	rss         *rssSampler   // runs during the timed phase
	before      usage
	after       usage
}

func newRunner(workload string, seed uint64, sc scale, setupOnly, traced bool, digests digestFile) *runner {
	r := &runner{
		seed:      seed,
		sc:        sc,
		setupOnly: setupOnly,
		digests:   digests,
		res: childResult{Workload: workload, Metrics: map[string]float64{}, Info: map[string]float64{},
			Digests: map[string]string{}},
	}
	if traced {
		r.tr = newTracer(workload)
		r.root = r.tr.begin("bench.workload")
	}
	return r
}

// metric records a declared metric. Each list belongs to one mode, so a
// per-layer value computed in an untraced run (or the reverse) is
// dropped; an undeclared name is a bug in this package.
func (r *runner) metric(name string, v float64) {
	_, traced, ok := lookupMetric(name)
	if !ok {
		panic("damqbench: undeclared metric " + name)
	}
	if traced == (r.tr != nil) {
		r.res.Metrics[name] = v
	}
}

// startTimed and stopTimed bracket the workload's timed phase.
func (r *runner) startTimed() {
	if r.tr != nil {
		r.before = readUsage()
		r.timed = r.tr.begin("bench.timed")
	}
	r.rss = startRSS()
	r.excluded = 0
	r.timedStart = time.Now()
}

// stopTimed also records the memory metrics: rss_mb, the mean resident
// memory over the timed work, and (as info) max_rss_mb, the peak of
// set-up and timed work, before the checks allocate their own. Where
// resident memory cannot be sampled, rss_mb falls back to the peak.
func (r *runner) stopTimed() {
	d := time.Since(r.timedStart)
	r.elapsed = d.Seconds()
	r.wall = (d - r.excluded).Seconds()
	if r.tr != nil {
		r.tr.end(r.timed)
		r.after = readUsage()
	}
	mean := r.rss.finish()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.res.Info["max_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB
	}
	if mean == 0 {
		mean = r.res.Info["max_rss_mb"]
	}
	r.metric("rss_mb", mean)
}

// exclude removes d, spent inside the timed phase on a twin simulation
// or on calibration, from the timed wall.
func (r *runner) exclude(d time.Duration) { r.excluded += d }

// calPeriod is the workload time per calibration sample: one 2.5 ms
// sample per 100 ms keeps calibration to 2.5% of a run.
const calPeriod = 100 * time.Millisecond

// pace is called between timed batches with the time the last one took;
// it takes the calibration samples due and keeps their time out of the
// timed wall.
func (r *runner) pace(d time.Duration) {
	r.calDue += d
	if n := int(r.calDue / calPeriod); n > 0 {
		r.calDue -= time.Duration(n) * calPeriod
		start := time.Now()
		r.cal.sample(n)
		r.exclude(time.Since(start))
	}
}

// hostSeconds converts measured host seconds of the workload's own work
// into seconds at the calibration's reference speed, and records both
// the measured seconds and the slowdown factor.
func (r *runner) hostSeconds(secs float64) float64 {
	if r.cal.n == 0 {
		r.cal.sample(3) // a run too short to have paced any samples
	}
	s := r.cal.scale(secs)
	r.res.Info["measured_s"] = secs
	r.res.Info["slowdown"] = secs / s
	return s
}

// usage is a reading of the process's resource counters.
type usage struct {
	mem             runtime.MemStats
	cpu             float64 // user+system seconds
	gcCPU, totalCPU float64 // runtime/metrics CPU classes, seconds
}

func readUsage() usage {
	var u usage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU, u.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return u
}

// finish computes the metrics every traced run reports and writes the
// span file.
func (r *runner) finish(spansPath string) error {
	t := r.tr
	if t == nil {
		return nil
	}
	t.end(r.root)
	untraced := r.untracedNs()
	r.metric("trace.wall_s", r.wall)
	r.metric("trace.clock_ns", t.clockNs)
	r.metric("trace.overhead_frac", float64(t.regionsUnder(r.timed))*t.clockNs/untraced)
	r.metric("trace.explained_frac", r.layerFrac(""))
	r.metric("trace.spans", float64(t.regionsUnder(-1)))
	r.metric("runtime.alloc_mb", float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc)/1e6)
	r.metric("runtime.gc_count", float64(r.after.mem.NumGC-r.before.mem.NumGC))
	gcFrac := 0.0 // the runtime updates its CPU classes only at GC
	if d := r.after.totalCPU - r.before.totalCPU; d > 0 {
		gcFrac = (r.after.gcCPU - r.before.gcCPU) / d
	}
	r.metric("runtime.gc_cpu_frac", gcFrac)
	r.metric("parallel.core_util", (r.after.cpu-r.before.cpu)/(r.elapsed*float64(runtime.GOMAXPROCS(0))))
	return t.write(spansPath)
}

// untracedNs estimates the timed wall without tracing: the traced wall
// less clockNs per timed region.
func (r *runner) untracedNs() float64 {
	return max(r.wall*1e9-float64(r.tr.regionsUnder(r.timed))*r.tr.clockNs, 1)
}

// layerFrac is the share of the untraced timed wall spent in the calls
// layerNs matches with key.
func (r *runner) layerFrac(key string) float64 {
	computeSelf(r.tr.spans, r.tr.folds)
	return r.tr.layerNs(key, r.timed) / r.untracedNs()
}
