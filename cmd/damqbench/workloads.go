package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/eventsim"
	"damq/internal/experiments"
	"damq/internal/netsim"
	"damq/internal/obs"
	"damq/internal/packet"
	"damq/internal/rng"
	"damq/internal/stats"
	"damq/internal/sw"
)

// workload is one set of inputs the benchmark runs. run builds the
// simulators from the seed, returns early under setupOnly, then runs the
// timed phase between startTimed and stopTimed and checks the output.
type workload struct {
	name string
	why  string
	run  func(r *runner) error
}

var workloads = []workload{
	{wPaper, "the quick paper report users run: hundreds of short fanned-out 64-input runs plus Markov, eventsim and comcobb; set-up and fan-out cost matter only here", runPaperQuick},
	{wW1, "fixed 1024x1024 DAMQ network stepped serially: Sim.Step's arbitrate, move and inject loops do nearly all the work and no worker gang exists", runW1},
	{wW2, "the same network on 2 workers: it differs from omega1024-w1 only by the gang's phases and barriers, so a barrier change shows here alone", runW2},
	{wWatch, "a watched, checkpointed 256-input run resumed from mid-run: the only workload where the obs and checkpoint layers do work", runWatched},
	{wSwitch, "standalone 4x4 switches of eight buffer kinds at load 0.9: admission, slot-pool and arbiter calls are the whole cost, and refusals are frequent", runSwitch4},
	{wAsync, "event-driven 64x64 DAMQ network with 1-32 byte packets: only the calendar-queue engine and multi-slot slot chains do the work", runAsync},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// paper-quick

// paperSection is one section of the quick report, rendered exactly as
// cmd/experiments prints it. An empty title continues the previous
// section after a blank line.
type paperSection struct {
	name, title string
	run         func() (string, error)
}

// rendered adapts an experiment and its renderer to a section body.
func rendered[T any](run func() (T, error), render func(T) string) func() (string, error) {
	return func() (string, error) {
		v, err := run()
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

// paperReport lists the sections of `experiments -scale quick`, Table 1
// through Ablation A4, in report order. The solver ablation gets a nil
// clock, so the text is deterministic.
func paperReport(sc experiments.Scale, table2Loads []float64) []paperSection {
	latencyRows := func(title string) func([]experiments.LatencyRow) string {
		return func(rows []experiments.LatencyRow) string { return experiments.RenderLatencyRows(title, rows) }
	}
	return []paperSection{
		{"table1", "Experiment E1 — Table 1: virtual cut-through in 4 clock cycles",
			rendered(experiments.Table1, (*experiments.Table1Result).Render)},
		{"table2", "Experiment E2 — Table 2: Markov analysis, 2x2 discarding switches",
			rendered(func() (*experiments.Table2Result, error) { return experiments.Table2(table2Loads, sc.Workers) },
				(*experiments.Table2Result).Render)},
		{"switch4", "Companion — 4x4 discarding switch, Monte-Carlo (Table 2 at real radix)",
			rendered(func() ([]experiments.Switch4Row, error) {
				return experiments.Switch4x4(sc.Measure*20, sc.Seed, sc.Workers)
			}, experiments.RenderSwitch4)},
		{"table3", "Experiment E3 — Table 3: discarding network, uniform traffic",
			rendered(func() (*experiments.Table3Result, error) { return experiments.Table3(sc) },
				(*experiments.Table3Result).Render)},
		{"figure3", "Experiment E4 — Figure 3: latency vs throughput (FIFO vs DAMQ, 4 slots)",
			rendered(func() ([]stats.Series, error) {
				return experiments.Figure3([]buffer.Kind{buffer.FIFO, buffer.DAMQ}, 4, nil, sc)
			}, experiments.RenderFigure3)},
		{"table4", "Experiment E5 — Table 4: blocking network latencies, 4 slots",
			rendered(func() ([]experiments.LatencyRow, error) { return experiments.Table4(sc) },
				latencyRows("Table 4: average latency (clocks) for given load, 4 slots/buffer, blocking, uniform"))},
		{"tail", "",
			rendered(func() ([]experiments.TailRow, error) { return experiments.TailLatency(0.45, sc) }, experiments.RenderTail)},
		{"table5", "Experiment E6 — Table 5: varying slots per buffer (FIFO vs DAMQ)",
			rendered(func() ([]experiments.LatencyRow, error) { return experiments.Table5(sc) },
				latencyRows("Table 5: average latency varying slots/buffer, blocking, uniform"))},
		{"table6", "Experiment E7 — Table 6: 5% hot-spot traffic",
			rendered(func() ([]experiments.Table6Row, error) { return experiments.Table6(sc) }, experiments.RenderTable6)},
		{"treesat", "",
			rendered(func() ([]experiments.TreeSatRow, error) { return experiments.TreeSaturation(sc) }, experiments.RenderTreeSat)},
		{"varlen", "Experiment E8 — extension: variable-length packets",
			rendered(func() ([]experiments.VarLenRow, error) { return experiments.VarLen(sc) }, experiments.RenderVarLen)},
		{"async", "Experiment E9 — extension: asynchronous arrivals (event-driven)",
			rendered(func() ([]experiments.AsyncRow, error) { return experiments.Async(sc) }, experiments.RenderAsync)},
		{"hogging", "Companion — central-pool hogging (§2's rejected design)",
			rendered(func() ([]experiments.HogRow, error) { return experiments.Hogging(sc) }, experiments.RenderHogging)},
		{"faults", "Companion — graceful degradation under injected link faults",
			rendered(func() ([]experiments.FaultCurveRow, error) { return experiments.FaultCurve(nil, nil, sc) },
				experiments.RenderFaultCurve)},
		{"radix", "Companion — radix sweep: DAMQ/FIFO gap vs switch size",
			rendered(func() ([]experiments.RadixRow, error) { return experiments.RadixSweep(sc) }, experiments.RenderRadix)},
		{"a1", "Ablation A1 — read connectivity x allocation (DAFC)",
			rendered(func() ([]experiments.ConnectivityRow, error) { return experiments.AblationConnectivity(sc) },
				experiments.RenderConnectivity)},
		{"a2", "Ablation A2 — smart vs dumb arbitration",
			rendered(func() ([]experiments.ArbitrationRow, error) { return experiments.AblationArbitration(sc) },
				experiments.RenderArbitration)},
		{"a3", "Ablation A3 — burstiness (multi-packet messages)",
			rendered(func() ([]experiments.BurstRow, error) { return experiments.AblationBurstiness(sc) },
				experiments.RenderBurstiness)},
		{"a4", "Ablation A4 — Markov solvers and mixing times",
			rendered(func() ([]experiments.SolverRow, error) { return experiments.AblationSolver(nil) }, experiments.RenderSolver)},
	}
}

// seedFreeSections do not depend on the seed, so their digests are
// checked at every seed.
var seedFreeSections = []string{"table1", "table2", "a4"}

func runPaperQuick(r *runner) error {
	sc := experiments.Quick
	sc.Seed = r.seed
	sc.Workers = 2
	var table2Loads []float64
	if r.sc.smoke() {
		sc.Warmup, sc.Measure = 5, 30
		table2Loads = []float64{0.5}
	}
	if r.setupOnly {
		return nil
	}
	sections := paperReport(sc, table2Loads)
	rule := strings.Repeat("=", 78)
	var report strings.Builder
	fmt.Fprintf(&report, "DAMQ reproduction report (scale=quick, seed=%d)\n", sc.Seed)
	texts := map[string]string{}
	r.startTimed()
	for _, s := range sections {
		id := r.tr.begin("experiments." + s.name)
		start := time.Now()
		text, err := s.run()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.pace(time.Since(start))
		texts[s.name] = text
		if s.title == "" {
			report.WriteString("\n")
		} else {
			fmt.Fprintf(&report, "\n%s\n%s\n%s\n", rule, s.title, rule)
		}
		report.WriteString(text)
	}
	r.stopTimed()
	r.metric("wall_s", r.hostSeconds(r.wall))
	if r.tr != nil {
		for _, s := range sections {
			r.metric("experiments."+s.name+"_frac", r.layerFrac("experiments."+s.name))
		}
	}

	r.digest(wPaper, "report", false, sha(report.String()))
	for _, s := range seedFreeSections {
		r.digest(wPaper, s, true, sha(texts[s]))
	}
	serial := sc
	serial.Workers = 1
	rows, err := experiments.TailLatency(0.45, serial)
	r.expectNoErr("tail latency reruns serially", err)
	r.expect("tail latency: serial run renders the fanned-out text", experiments.RenderTail(rows) == texts["tail"],
		"serial and 2-worker renderings differ")
	return nil
}

// ---------------------------------------------------------------------------
// The netsim workloads

// omegaRun describes one stepped Omega-network workload.
type omegaRun struct {
	group   string // digest family: workloads that must produce equal Results share it
	cfg     netsim.Config
	watched bool       // observer with a 100-cycle series, checkpoints to memory, resume check
	twins   []twinSpec // traced runs only: twins stepped in alternating batches
}

// twinSpec is a twin of the main simulation, restored from its state
// after the first measured batch, whose batch times the traced run
// compares with the main one's.
type twinSpec struct {
	name     string
	workers  int
	observed bool
}

type twin struct {
	twinSpec
	sim  *netsim.Sim
	secs []float64
}

func omega1024(workers int) netsim.Config {
	return netsim.Config{
		Radix: 4, Inputs: 1024, BufferKind: buffer.DAMQ, Capacity: 4,
		Policy: arbiter.Smart, Protocol: sw.Blocking,
		Traffic:      netsim.TrafficSpec{Kind: netsim.Uniform, Load: 0.5},
		WarmupCycles: 1000, MeasureCycles: 5000, Workers: workers,
	}
}

func runW1(r *runner) error {
	return runOmega(r, omegaRun{group: "omega1024", cfg: omega1024(1)})
}

func runW2(r *runner) error {
	return runOmega(r, omegaRun{group: "omega1024", cfg: omega1024(2),
		twins: []twinSpec{{name: "serial", workers: 1}}})
}

func runWatched(r *runner) error {
	return runOmega(r, omegaRun{
		group: "omega256",
		cfg: netsim.Config{
			Radix: 4, Inputs: 256, BufferKind: buffer.DAMQ, Capacity: 4,
			Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      netsim.TrafficSpec{Kind: netsim.Uniform, Load: 0.6},
			WarmupCycles: 500, MeasureCycles: 30000, Workers: 2,
		},
		watched: true,
		twins:   []twinSpec{{name: "unobserved", workers: 2}, {name: "serial", workers: 1, observed: true}},
	})
}

// observe attaches a fresh observer with the workloads' 100-cycle series.
func observe(s *netsim.Sim) *obs.Observer {
	o := obs.NewObserver()
	o.SetInterval(100)
	s.SetObserver(o)
	return o
}

// runOmega drives one netsim workload through Sim.RunCtxCheckpoint,
// whose periodic callback times 100-cycle batches (every cycle when
// traced, so each Step gets a span) and does the between-batch work:
// checkpoints, twin batches and the snapshots the checks compare.
func runOmega(r *runner, o omegaRun) error {
	batch := int64(100)
	if r.sc.smoke() {
		batch = 10
	}
	cfg := o.cfg
	cfg.WarmupCycles = r.sc.cycles(cfg.WarmupCycles, batch)
	cfg.MeasureCycles = r.sc.cycles(cfg.MeasureCycles, batch)
	cfg.Seed = r.seed
	warm, meas := cfg.WarmupCycles, cfg.MeasureCycles

	id := r.tr.begin("netsim.New")
	sim, err := netsim.New(cfg)
	r.tr.end(id)
	if err != nil {
		return err
	}
	defer sim.Close()
	var observer *obs.Observer
	if o.watched {
		observer = observe(sim)
	}
	if r.setupOnly {
		return nil
	}

	traced := r.tr != nil
	saveEvery := 5 * batch
	keepAt := warm + (meas/2+saveEvery-1)/saveEvery*saveEvery // the save the resume check restores
	segAt := warm + batch                                     // twins and the serial-segment check start here
	segEnd := min(segAt+5*batch, warm+meas)                   // where the serial-segment check compares
	serialCheck := cfg.Workers > 1 && !o.watched

	var (
		timedSecs           float64 // the timed batches, between-batch work left out
		batches             int
		stepNs, saveSecs    []float64
		ckpt                bytes.Buffer
		kept, seg           []byte
		keptPackets         int64
		segRes              *netsim.Result
		inflight0, backlog0 int64
		inflightSum         float64
		twins               []*twin
		paired              []float64
		batchStart          time.Time
		lastStep            int64
		hookErr             error
	)
	defer func() {
		for _, tw := range twins {
			tw.sim.Close()
		}
	}()
	// aside runs between-batch work that is not the workload's own and
	// keeps its time out of the timed wall.
	aside := func(f func() error) {
		t0 := time.Now()
		if err := f(); err != nil && hookErr == nil {
			hookErr = err
		}
		r.exclude(time.Since(t0))
	}
	hook := func() error {
		c := sim.Cycle()
		if c < warm {
			return nil
		}
		if sim.Measured() == 0 {
			inflight0, backlog0 = sim.InFlight(), sim.SourceBacklogLen()
			r.startTimed()
			batchStart = time.Now()
			if traced {
				lastStep = r.tr.now()
			}
			return nil
		}
		if traced {
			t := r.tr.now()
			r.tr.add("netsim.Sim.Step", lastStep, t)
			stepNs = append(stepNs, float64(t-lastStep))
		}
		if (c-warm)%batch != 0 {
			if traced {
				lastStep = r.tr.now()
			}
			return nil
		}
		dtd := time.Since(batchStart)
		dt := dtd.Seconds()
		timedSecs += dt
		batches++
		r.pace(dtd)

		if traced {
			inflightSum += float64(sim.InFlight())
		}
		if o.watched && (c-warm)%saveEvery == 0 {
			id := r.tr.begin("netsim.Sim.Checkpoint")
			t0 := time.Now()
			ckpt.Reset()
			err := sim.Checkpoint(&ckpt)
			saveSecs = append(saveSecs, time.Since(t0).Seconds())
			r.tr.end(id)
			if err != nil {
				return err
			}
			if c == keepAt {
				kept = bytes.Clone(ckpt.Bytes())
				keptPackets = sim.InFlight() + sim.SourceBacklogLen()
			}
		}
		if c == segAt && (serialCheck || traced && len(o.twins) > 0) {
			aside(func() error {
				var buf bytes.Buffer
				if err := sim.Checkpoint(&buf); err != nil {
					return err
				}
				seg = buf.Bytes()
				if !traced {
					return nil
				}
				for _, ts := range o.twins {
					s, err := netsim.RestoreSimOpts(bytes.NewReader(seg), netsim.RestoreOpts{Workers: ts.workers, WorkersSet: true})
					if err != nil {
						return err
					}
					if ts.observed {
						observe(s)
					}
					twins = append(twins, &twin{twinSpec: ts, sim: s})
				}
				return nil
			})
		}
		if c == segEnd && serialCheck {
			aside(func() error { segRes = sim.Collect(); return nil })
		}
		if len(twins) > 0 && c > segAt && (c-segAt)/batch%2 == 0 {
			paired = append(paired, dt)
			for _, tw := range twins {
				id := r.tr.begin("bench.twin/" + tw.name)
				t0 := time.Now()
				for i := int64(0); i < batch; i++ {
					tw.sim.Step(true)
				}
				d := time.Since(t0)
				r.tr.end(id)
				tw.secs = append(tw.secs, d.Seconds())
				r.exclude(d)
			}
		}
		batchStart = time.Now()
		if traced {
			lastStep = r.tr.now()
		}
		return hookErr
	}
	every := batch
	if traced {
		every = 1
	}
	res, err := sim.RunCtxCheckpoint(context.Background(), every, hook)
	if err != nil {
		return err
	}
	r.stopTimed()

	r.metric("wall_s", r.hostSeconds(timedSecs+sum(saveSecs)))

	accounted := res.Delivered + sim.InFlight() - inflight0 + sim.SourceBacklogLen() - backlog0
	r.expect("conservation: generated = delivered + growth of in-flight and backlog", res.Generated == accounted,
		"generated %d, accounted %d", res.Generated, accounted)
	id = r.tr.begin("netsim.Sim.CheckBuffers")
	t0 := time.Now()
	err = sim.CheckBuffers()
	checkNs := float64(time.Since(t0))
	r.tr.end(id)
	r.expectNoErr("slot-pool linked lists well-formed", err)
	r.digest(o.group, "result", false, resultDigest(res))

	if serialCheck {
		s, err := netsim.RestoreSimOpts(bytes.NewReader(seg), netsim.RestoreOpts{Workers: 1, WorkersSet: true})
		if err != nil {
			return err
		}
		defer s.Close()
		for s.Cycle() < segEnd {
			s.Step(true)
		}
		r.expect(fmt.Sprintf("cycles %d-%d: serial twin equals sharded run", segAt, segEnd),
			reflect.DeepEqual(s.Collect(), segRes), "results differ")
	}
	var snap []byte
	if o.watched {
		if snap, err = observer.Snapshot().Encode(); err != nil {
			return err
		}
		r.expectNoErr("metrics snapshot validates", netsim.ValidateSnapshotJSON(snap))
		if err := checkResume(r, kept, keepAt, res, snap); err != nil {
			return err
		}
	}
	if !traced {
		return nil
	}

	// Per-layer metrics.
	rate := float64(meas) / r.cal.scale(timedSecs)
	stepMed := median(stepNs)
	r.metric("sim.cycles", float64(meas))
	r.metric("sim.packets", float64(res.Delivered))
	r.metric("sim.cycles_per_s", rate)
	r.metric("sim.packets_per_s", float64(res.Delivered)*rate/float64(meas))
	r.metric("netsim.step_frac", r.layerFrac("netsim.Sim.Step"))
	r.metric("netsim.steps", float64(len(stepNs)))
	r.metric("netsim.step_p99_over_p50", quantile(stepNs, 0.99)/stepMed)
	id = r.tr.begin("netsim.Sim.Collect")
	t0 = time.Now()
	sim.Collect()
	collectNs := float64(time.Since(t0))
	r.tr.end(id)
	r.metric("netsim.collect_per_step", collectNs/stepMed)
	r.metric("netsim.check_buffers_per_step", checkNs/stepMed)
	r.metric("netsim.inflight_mean", inflightSum/float64(batches))
	r.metric("netsim.delivered_per_cycle", float64(res.Delivered)/float64(meas))

	mainMed := median(paired)
	for _, tw := range twins {
		switch {
		case tw.workers == 1:
			speedup := median(tw.secs) / mainMed
			r.metric("parallel.speedup", speedup)
			r.metric("parallel.efficiency", speedup/float64(sim.Workers()))
		case o.watched && !tw.observed:
			r.metric("obs.step_overhead", mainMed/median(tw.secs)-1)
		}
	}
	if !o.watched {
		return nil
	}
	id = r.tr.begin("obs.Observer.Snapshot")
	t0 = time.Now()
	_, err = observer.Snapshot().Encode()
	snapNs := float64(time.Since(t0))
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.metric("obs.snapshot_per_step", snapNs/stepMed)
	r.metric("obs.snapshot_bytes", float64(len(snap)))

	var restoreSecs []float64
	for i := 0; i < 10; i++ {
		id := r.tr.begin("netsim.RestoreSim")
		t0 := time.Now()
		s, err := netsim.RestoreSim(bytes.NewReader(kept))
		restoreSecs = append(restoreSecs, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			return err
		}
		s.Close() // the checkpoint says Workers: 2, so each restore starts a gang
	}
	mb := float64(len(kept)) / 1e6
	r.metric("checkpoint.saves", float64(len(saveSecs)))
	r.metric("checkpoint.save_frac", r.layerFrac("netsim.Sim.Checkpoint"))
	r.metric("checkpoint.save_p99_over_p50", quantile(saveSecs, 0.99)/median(saveSecs))
	r.metric("checkpoint.save_mb_per_s", mb/median(saveSecs))
	r.metric("checkpoint.restore_mb_per_s", mb/median(restoreSecs))
	r.metric("checkpoint.bytes", float64(len(kept)))
	r.metric("checkpoint.bytes_per_packet", float64(len(kept))/float64(max(keptPackets, 1)))
	return nil
}

// checkResume restores the mid-run checkpoint serially with a fresh
// observer, runs it to the end, and checks that the Result and the
// metrics snapshot bytes equal the uninterrupted run's.
func checkResume(r *runner, kept []byte, at int64, want *netsim.Result, wantSnap []byte) error {
	id := r.tr.begin("netsim.RestoreSim")
	s, err := netsim.RestoreSimOpts(bytes.NewReader(kept), netsim.RestoreOpts{Workers: 1, WorkersSet: true})
	r.tr.end(id)
	if err != nil {
		return err
	}
	defer s.Close()
	o := observe(s)
	got, err := s.RunCtx(context.Background())
	if err != nil {
		return err
	}
	snap, err := o.Snapshot().Encode()
	if err != nil {
		return err
	}
	r.expect(fmt.Sprintf("resume from cycle %d equals the uninterrupted run", at), reflect.DeepEqual(got, want),
		"resumed Result differs")
	r.expect("resumed metrics snapshot is byte-identical", bytes.Equal(snap, wantSnap), "snapshots differ")
	return nil
}

// ---------------------------------------------------------------------------
// switch4-kinds

// switchCell is one standalone-switch configuration of switch4-kinds.
type switchCell struct {
	name string
	cfg  sw.Config
}

func switchCellConfigs() []switchCell {
	cell := func(name string, kind buffer.Kind, pool bool) switchCell {
		return switchCell{name, sw.Config{Ports: 4, BufferKind: kind, Capacity: 4, Policy: arbiter.Smart, SharedPool: pool}}
	}
	return []switchCell{
		cell("FIFO", buffer.FIFO, false), cell("SAMQ", buffer.SAMQ, false), cell("SAFC", buffer.SAFC, false),
		cell("DAMQ", buffer.DAMQ, false), cell("DAFC", buffer.DAFC, false), cell("DT", buffer.DT, false),
		cell("FB", buffer.FB, false), cell("DT-pool", buffer.DT, true),
	}
}

// switchLoad is the per-input arrival probability: high enough that the
// buffers refuse 5-27% of arrivals.
const switchLoad = 0.9

// cellSeed derives cell k's random stream seed from the workload seed.
func cellSeed(seed uint64, k int) uint64 { return seed ^ uint64(k+1)*0x9E3779B97F4A7C15 }

// cellCounts are one cell's packet counts.
type cellCounts struct {
	arrivals, discarded, delivered int64
	occupancy                      float64 // sum over cycles of packets held
}

// cellRun is what one cell's measured loop produced.
type cellRun struct {
	counts, prefix  cellCounts
	secs            float64 // the loop's time, calibration left out
	arb, offer, pop *fold   // traced only
}

func runSwitch4(r *runner) error {
	cycles := r.sc.cycles(1_000_000, 10_000)
	batch := cycles / 100
	prefix := cycles / 10
	cells := switchCellConfigs()
	switches := make([]*sw.Switch, len(cells))
	for k, c := range cells {
		id := r.tr.begin("sw.New")
		s, err := sw.New(c.cfg)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		switches[k] = s
	}
	if r.setupOnly {
		return nil
	}
	runs := make([]cellRun, len(cells))
	r.startTimed()
	for k, c := range cells {
		runs[k] = runCell(r, c.name, switches[k], rng.New(cellSeed(r.seed, k)), cycles, batch, prefix)
	}
	r.stopTimed()

	secs := 0.0
	h := newHasher()
	for k, c := range cells {
		run := &runs[k]
		secs += run.secs
		n := run.counts
		h.ints(n.arrivals, n.discarded, n.delivered, int64(switches[k].Len()))
		r.expect(c.name+": arrivals = delivered + discarded + held", n.arrivals == n.delivered+n.discarded+int64(switches[k].Len()),
			"arrivals %d, delivered %d, discarded %d, held %d", n.arrivals, n.delivered, n.discarded, switches[k].Len())
		fresh, err := sw.New(c.cfg)
		if err != nil {
			return err
		}
		mc := fresh.RunDiscarding(switchLoad, prefix, rng.New(cellSeed(r.seed, k)))
		p := run.prefix
		r.expect(fmt.Sprintf("%s: first %d cycles equal Switch.RunDiscarding", c.name, prefix),
			mc.Arrivals == p.arrivals && mc.Discarded == p.discarded && mc.Delivered == p.delivered &&
				mc.MeanOccupancy == p.occupancy/float64(prefix),
			"harness %+v, RunDiscarding %+v", p, mc)
	}
	r.metric("wall_s", r.hostSeconds(secs))
	r.digest(wSwitch, "cells", false, h.sum())
	if r.tr == nil {
		return nil
	}

	var total, delivered, host float64
	for k, c := range cells {
		run := &runs[k]
		n := run.counts
		calls := run.arb.Count + run.offer.Count + run.pop.Count
		loop := max(run.secs*1e9-float64(calls)*r.tr.clockNs, 1) // less tracing overhead
		r.metric("sw.cycles_per_s."+c.name, float64(cycles)/r.cal.scale(loop/1e9))
		r.metric("arbiter.arbitrate_frac."+c.name, run.arb.netNs(r.tr.readNs)/loop)
		r.metric("buffer.offer_frac."+c.name, run.offer.netNs(r.tr.readNs)/loop)
		r.metric("buffer.pop_frac."+c.name, run.pop.netNs(r.tr.readNs)/loop)
		r.metric("buffer.refuse_frac."+c.name, float64(n.discarded)/float64(n.arrivals))
		r.metric("arbiter.grants_per_cycle."+c.name, float64(n.delivered)/float64(cycles))
		total += float64(cycles)
		delivered += float64(n.delivered)
		host += r.cal.scale(loop / 1e9)
	}
	r.metric("sim.cycles", total)
	r.metric("sim.packets", delivered)
	r.metric("sim.cycles_per_s", total/host)
	r.metric("sim.packets_per_s", delivered/host)
	return nil
}

// runCell drives one standalone discarding switch exactly as
// Switch.RunDiscarding does — departures on the pre-arrival state, then
// one Bernoulli arrival per input to a uniform output — but recycles
// packets and times the calls. It records the counts after prefix
// cycles for the cross-check against RunDiscarding.
func runCell(r *runner, name string, s *sw.Switch, src *rng.Source, cycles, batch, prefix int64) cellRun {
	var run cellRun
	traced := r.tr != nil
	id := r.tr.begin("bench.cell/" + name)
	if traced {
		run.arb = r.tr.fold("sw.Switch.Arbitrate/" + name)
		run.offer = r.tr.fold("sw.Switch.Offer/" + name)
		run.pop = r.tr.fold("sw.Switch.PopGrant/" + name)
	}
	n := s.Ports()
	var alloc packet.Alloc
	var grants []arbiter.Grant
	cnt := &run.counts
	batchStart := time.Now()
	for c := int64(0); c < cycles; c++ {
		if traced {
			t := r.tr.now()
			grants = s.Arbitrate(nil, grants[:0])
			run.arb.add(r.tr.now() - t)
		} else {
			grants = s.Arbitrate(nil, grants[:0])
		}
		for _, g := range grants {
			var p *packet.Packet
			if traced {
				t := r.tr.now()
				p = s.PopGrant(g)
				run.pop.add(r.tr.now() - t)
			} else {
				p = s.PopGrant(g)
			}
			cnt.delivered++
			alloc.Recycle(p)
		}
		for in := 0; in < n; in++ {
			if !src.Bool(switchLoad) {
				continue
			}
			cnt.arrivals++
			dest := src.Intn(n)
			p := alloc.New(in, dest, 1, c)
			p.OutPort = dest
			var ok bool
			if traced {
				t := r.tr.now()
				ok = s.Offer(in, p)
				run.offer.add(r.tr.now() - t)
			} else {
				ok = s.Offer(in, p)
			}
			if !ok {
				cnt.discarded++
				alloc.Recycle(p)
			}
		}
		cnt.occupancy += float64(s.Len())
		if c+1 == prefix {
			run.prefix = *cnt
		}
		if (c+1)%batch == 0 {
			d := time.Since(batchStart)
			run.secs += d.Seconds()
			r.pace(d)
			batchStart = time.Now()
		}
	}
	r.tr.end(id)
	return run
}

// ---------------------------------------------------------------------------
// async-varlen

// asyncChunks splits the async-varlen measurement into independent runs,
// each with its own warmup and seed, so that calibration samples can
// interleave with it.
const asyncChunks = 10

func runAsync(r *runner) error {
	warm := r.sc.cycles(20_000, 100)
	meas := r.sc.cycles(120_000, 100)
	seeds := rng.New(r.seed)
	sims := make([]*eventsim.Sim, asyncChunks)
	var newNs []float64
	for i := range sims {
		id := r.tr.begin("eventsim.New")
		t0 := time.Now()
		s, err := eventsim.New(eventsim.Config{
			Radix: 4, Inputs: 64, BufferKind: buffer.DAMQ, Capacity: 4,
			MinBytes: 1, MaxBytes: 32, Load: asyncLoad,
			Warmup: warm, Measure: meas, Seed: seeds.Uint64(),
		})
		newNs = append(newNs, float64(time.Since(t0)))
		r.tr.end(id)
		if err != nil {
			return err
		}
		sims[i] = s
	}
	if r.setupOnly {
		return nil
	}
	var runNs []float64
	var delivered int64
	results := make([]*eventsim.Result, len(sims))
	r.startTimed()
	for i, s := range sims {
		id := r.tr.begin("eventsim.Sim.Run")
		t0 := time.Now()
		results[i] = s.Run()
		d := time.Since(t0)
		r.tr.end(id)
		runNs = append(runNs, float64(d))
		delivered += results[i].Delivered
		r.pace(d)
	}
	r.stopTimed()
	host := r.hostSeconds(sum(runNs) / 1e9)
	r.metric("wall_s", host)

	h := newHasher()
	util := 0.0
	for i, res := range results {
		h.ints(res.Generated, res.Delivered)
		h.summary(&res.Latency)
		util += res.LinkUtilization / float64(len(results))
		r.expect(fmt.Sprintf("run %d: latency at least the %d-cycle floor", i, asyncFloor), res.Latency.N() > 0 && res.Latency.Min() >= asyncFloor,
			"%d samples, minimum %v", res.Latency.N(), res.Latency.Min())
		r.expect(fmt.Sprintf("run %d: buffered packets fit the slots", i), sims[i].InFlight() <= asyncSlots,
			"%d buffered", sims[i].InFlight())
	}
	r.expect(fmt.Sprintf("link utilization tracks the offered %.2f", asyncLoad), math.Abs(util-asyncLoad) <= 0.02,
		"mean utilization %.4f", util)
	r.digest(wAsync, "runs", false, h.sum())
	if r.tr == nil {
		return nil
	}
	cycles := float64(len(sims)) * float64(warm+meas)
	r.metric("sim.cycles", cycles)
	r.metric("sim.packets", float64(delivered))
	r.metric("sim.cycles_per_s", cycles/host)
	r.metric("sim.packets_per_s", float64(delivered)/host)
	r.metric("eventsim.new_over_run", median(newNs)/median(runNs))
	r.metric("eventsim.delivered", float64(delivered))
	return nil
}

const (
	asyncLoad = 0.35
	// asyncFloor is the zero-load latency of a 1-byte packet: three
	// stages of 4-cycle routing, 3 framing cycles and 1 byte.
	asyncFloor = 3*4 + 3 + 1
	// asyncSlots bounds buffered packets: 3 stages x 16 switches x 4
	// inputs x 4 slots, each packet at least one slot.
	asyncSlots = 3 * 16 * 4 * 4
)
