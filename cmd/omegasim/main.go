// Command omegasim runs the paper's experiments: the whole report, any
// one table or figure, a single network, a custom sweep, or the chip
// trace.
//
// Usage:
//
//	omegasim -exp report -scale full > report.txt   # every table and figure
//	omegasim -exp report -skip-markov -json r.json  # without Table 2, plus JSON
//	omegasim -exp table3            # Table 3 (discarding, uniform)
//	omegasim -exp table4            # Table 4 (blocking latencies)
//	omegasim -exp table5            # Table 5 (slot-count sweep)
//	omegasim -exp table6            # Table 6 (hot spot)
//	omegasim -exp figure3           # Figure 3 (latency vs throughput)
//	omegasim -exp table2            # Table 2 (exact Markov analysis)
//	omegasim -exp table2 -kind damq -capacity 3 -load 0.9 -sim 100000  # one cell
//	omegasim -exp modern            # 1988 vs 2026 sharing policies
//	omegasim -exp varlen            # variable-length extension
//	omegasim -exp async             # asynchronous event-driven extension
//	omegasim -exp async -packets 200000       # ~200k delivered packets/point
//	omegasim -exp chip              # ComCoBB chip trace, 8-byte packet
//	omegasim -exp chip -bytes 32 -busy        # longest packet, output pre-occupied
//	omegasim -exp chip -faults "wirecorrupt=0.05,retries=4"  # parity NACK + retransmit
//	omegasim -exp run -kind damq -load 0.6 -protocol blocking  # one run
//	omegasim -exp run -kind dt:alpha=0.5 -shared -protocol discarding  # pooled switch
//	omegasim -exp run -inputs 1024 -workers 8                  # sharded 1024×1024
//	omegasim -exp run -checkpoint-every 500 -checkpoint-file run.ckpt  # crash-safe snapshots
//	omegasim -exp run -resume run.ckpt                         # continue after a kill
//	omegasim -exp sweep -kinds fifo,damq -loads 0.2,0.5,0.8 -caps 4,8 -out sweep.csv
//	omegasim -exp sweep -kinds damq -loads 1.0 -caps 4 -traffic hotspot -hot 0.05
//
// Every other -exp name (table1, hogging, a1 ... a4, ...) runs that
// entry of the experiment registry, exactly as the report renders it.
//
// -exp report prints every section of the registry's report under a
// header and section banners. -skip-markov drops Table 2, -reps N adds
// the saturation throughput replicated across N seeds, -metrics FILE
// adds Figure 3 recovered from one instrumented run (its snapshot goes
// to FILE), and -json FILE also writes the machine-readable report.
//
// -exp table2 with -kind set solves one cell of Table 2 (-capacity
// slots per port at -load) and prints its diagnostics; -sim N also
// estimates it by Monte-Carlo over N cycles from -seed.
//
// -exp chip pushes one -bytes packet through an idle ComCoBB chip and
// prints the Table 1 event schedule: virtual cut-through in four clock
// cycles. -busy pre-occupies the destination output so the packet is
// buffered; -faults injects wire faults.
//
// -exp sweep runs a custom parameter grid, every combination of -kinds,
// -caps and -loads, and writes CSV to stdout or -out. It shares
// -protocol, -policy, -hot, -scale, -seed and -workers with -exp run.
//
// -scale quick|full selects run length (full is what EXPERIMENTS.md
// records; quick is a fast smoke version). -workers parallelizes: for
// sweeps and the report it fans points out across cores; for -exp run
// it shards the single network's stages across cores, stepping them in
// lock-step phases — either way the results are byte-identical at any
// count.
//
// With -exp run, -metrics <file> attaches an observer and writes its
// JSON snapshot (per-stage occupancy, per-queue depth, discard/block
// counters, latency histograms); -metrics-interval N adds a cumulative
// time series every N cycles (a run resumed from an observed checkpoint
// keeps the checkpoint's interval). -check-metrics <file> validates a
// previously written snapshot and exits — the CI smoke check.
//
// -checkpoint-file <file> makes -exp run crash-safe: the simulation state
// is saved atomically every -checkpoint-every cycles (or only on
// interrupt when that is 0), and SIGINT/SIGTERM drain the current cycle
// and write a final checkpoint before exiting 130. -resume <file>
// continues such a run from exactly where it stopped; the resumed run's
// results are byte-identical to never having been interrupted, at any
// -workers count.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"damq"
	"damq/internal/checkpoint"
	"damq/internal/cli"
	"damq/internal/experiments"
	"damq/internal/markov2x2"
	"damq/internal/netsim"
	"damq/internal/rng"
)

// svgTitles names the figures -svg can plot.
var svgTitles = map[string]string{
	"figure3": "Figure 3: FIFO vs DAMQ, 4 slots, uniform traffic, blocking",
	"modern":  "1988 vs 2026: DAMQ vs DT/FB/BSHARE, 4 slots, uniform traffic, discarding",
}

// sweepTraffic maps -traffic to the traffic kinds a sweep can run.
var sweepTraffic = map[string]netsim.TrafficKind{"uniform": netsim.Uniform, "hotspot": netsim.HotSpot, "bursty": netsim.Bursty}

func main() {
	sections := append(experiments.Sections(time.Now), experiments.Extras(time.Now)...)
	expNames := []string{"report", "run", "sweep", "chip"}
	for _, s := range sections {
		expNames = append(expNames, s.Name)
	}
	exp := flag.String("exp", "table4", "experiment: "+strings.Join(expNames, "|"))
	svgPath := flag.String("svg", "", "figure3/modern: also write an SVG figure to this path")
	scaleName := flag.String("scale", "quick", "simulation scale: quick|full")
	kind := flag.String("kind", "damq", `run: buffer kind, optionally with sharing knobs ("dt:alpha=0.5,classes=4"); table2: setting it solves that one cell (fifo|samq|safc|damq|dafc)`)
	shared := flag.Bool("shared", false, "run: pool all of a switch's input buffers into one shared storage group")
	load := flag.Float64("load", 0.5, "run, table2 cell: offered load")
	inputs := flag.Int("inputs", 0, "run: network size (ports per side, power of the radix; 0 = the paper's 64)")
	capacity := flag.Int("capacity", 4, "run: slots per input buffer; table2 cell: slots per input port")
	protocol := flag.String("protocol", "blocking", "run/sweep: blocking|discarding")
	policy := flag.String("policy", "smart", "run/sweep: smart|dumb arbitration")
	hot := flag.Float64("hot", 0, "run: hot-spot fraction (0 = uniform); sweep: the fraction -traffic hotspot uses")
	seed := flag.Uint64("seed", 1988, "PRNG seed")
	packets := flag.Int64("packets", 0, "async: size each point's measurement window to deliver ~this many packets (0 = -scale's cycle spans)")
	simCycles := flag.Int64("sim", 0, "table2 cell: also cross-check it by Monte-Carlo for this many cycles")
	workers := flag.Int("workers", 0, "parallelism: concurrent simulations for sweeps and the report, shard workers stepping the one network for -exp run (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	skipMarkov := flag.Bool("skip-markov", false, "report: skip Table 2 (the slowest exact computation)")
	jsonPath := flag.String("json", "", "report: also write the machine-readable report to this path")
	reps := flag.Int("reps", 0, "report: replicate the saturation measurement across this many seeds, run concurrently on -workers goroutines (0 = skip)")
	metricsPath := flag.String("metrics", "", "run: attach an observer and write its JSON snapshot to this path; report: run one instrumented over-subscribed DAMQ simulation, write its snapshot (with time series) to this path, and report the Figure-3-style curve recovered from it")
	metricsInterval := flag.Int64("metrics-interval", 0, "run: record a cumulative time-series point every N cycles in the -metrics snapshot (0 = off); on -resume from an observed checkpoint the checkpoint's interval wins")
	checkMetrics := flag.String("check-metrics", "", "validate a -metrics JSON file and exit (CI smoke check)")
	faultsSpec := flag.String("faults", "", `run/faults/chip: fault spec, e.g. "linktransient=1e-3,slotstuck=1e-5,seed=7" (see damq.ParseFaultSpec); faults takes only linktransient`)
	nbytes := flag.Int("bytes", 8, "chip: payload bytes (1..32)")
	busy := flag.Bool("busy", false, "chip: pre-occupy the destination output so the packet is buffered, not cut through")
	ckptEvery := flag.Int64("checkpoint-every", 0, "run: save a checkpoint to -checkpoint-file after every N cycles (0 = only on interrupt)")
	ckptFile := flag.String("checkpoint-file", "", "run: checkpoint path, written atomically (temp file, fsync, rename) so a kill mid-save never corrupts it")
	resumePath := flag.String("resume", "", "run: resume from this checkpoint instead of starting fresh; topology, seed, progress, and fault schedule come from the file (-workers and -metrics still apply)")
	kinds := flag.String("kinds", "fifo,damq", "sweep: comma-separated buffer kinds")
	loads := flag.String("loads", "0.25,0.5,0.75,1.0", "sweep: comma-separated offered loads")
	caps := flag.String("caps", "4", "sweep: comma-separated buffer capacities (slots)")
	trafficName := flag.String("traffic", "uniform", "sweep: uniform|hotspot|bursty")
	burst := flag.Float64("burst", 4, "sweep: mean message length (-traffic bursty)")
	out := flag.String("out", "", "sweep: CSV output path (default stdout)")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// SIGINT/SIGTERM cancel the scale context: running sweeps drain their
	// in-flight points and return what they finished.
	cli.Main("omegasim", func(ctx context.Context) error {
		if *checkMetrics != "" {
			raw, err := os.ReadFile(*checkMetrics)
			if err == nil {
				if err = damq.ValidateMetricsJSON(raw); err == nil {
					fmt.Printf("%s: valid network metrics snapshot\n", *checkMetrics)
				}
			}
			return err
		}
		sc, err := experiments.ParseScale(*scaleName)
		if err != nil {
			return err
		}
		sc.Seed, sc.Workers, sc.Ctx = *seed, *workers, ctx
		rep := &experiments.Report{Scale: sc}

		switch *exp {
		case "run":
			return runOne(ctx, *kind, *shared, *load, *inputs, *capacity, *protocol, *policy, *hot, sc, set["workers"], *metricsPath, *metricsInterval, *faultsSpec,
				*ckptEvery, *ckptFile, *resumePath)
		case "sweep":
			return sweep(sc, *out, *kinds, *loads, *caps, *protocol, *policy, *trafficName, *hot, *burst)
		case "report":
			fmt.Printf("DAMQ reproduction report (scale=%s, seed=%d)\n", *scaleName, sc.Seed)
			if err := printReport(os.Stdout, sc, rep, reportSections(*skipMarkov, *metricsPath, *reps)); err != nil || *jsonPath == "" {
				return err
			}
			if err := cli.WriteFile(*jsonPath, rep.JSON); err != nil {
				return err
			}
			fmt.Printf("\nJSON report written to %s\n", *jsonPath)
			return nil
		}
		// -exp chip, -exp table2 -kind, -exp async -packets and -exp faults
		// -faults take inputs the registry does not: they swap in a run
		// with those parameters, printed the same way.
		var text string
		i := slices.IndexFunc(sections, func(s experiments.Section) bool { return s.Name == *exp })
		switch {
		case *exp == "chip":
			text, err = chipTrace(ctx, *nbytes, *busy, *faultsSpec)
		case *exp == "table2" && set["kind"]:
			text, err = table2Cell(*kind, *capacity, *load, *simCycles, sc.Seed)
		case *exp == "async" && *packets > 0:
			text, err = experiments.Entry(func(sc experiments.Scale) ([]experiments.AsyncRow, error) {
				return experiments.AsyncPackets(sc, *packets)
			}, experiments.RenderAsync, nil)(sc, rep)
		case *exp == "faults" && *faultsSpec != "":
			var rates []float64
			if rates, err = faultRates(*faultsSpec); err != nil {
				return err
			}
			text, err = experiments.Entry(func(sc experiments.Scale) ([]experiments.FaultCurveRow, error) {
				return experiments.FaultCurve(nil, rates, sc)
			}, experiments.RenderFaultCurve, nil)(sc, rep)
		case i >= 0:
			text, err = sections[i].Run(sc, rep)
		default:
			return fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(expNames, "|"))
		}
		fmt.Print(text)
		if err != nil {
			return cli.Interrupted(err, "interrupted before the experiment completed")
		}
		if title, ok := svgTitles[*exp]; ok && *svgPath != "" {
			if err := os.WriteFile(*svgPath, []byte(damq.RenderFigure3SVG(rep.Curves, title)), 0o644); err != nil {
				return err
			}
			fmt.Printf("\nSVG figure written to %s\n", *svgPath)
		}
		return nil
	})
}

// printReport runs the report's entries in order and prints their text
// to w, a cancelled entry's partial text included. Each titled entry
// opens under a ruled banner; an untitled one continues the previous
// section after a blank line.
func printReport(w io.Writer, sc experiments.Scale, rep *experiments.Report, entries []experiments.Section) error {
	total, done := 0, 0
	for _, s := range entries {
		if s.Title != "" {
			total++
		}
	}
	rule := strings.Repeat("=", 78)
	for _, s := range entries {
		if s.Title == "" {
			fmt.Fprintln(w)
		} else {
			done++
			fmt.Fprintf(w, "\n%s\n%s\n%s\n", rule, s.Title, rule)
		}
		text, err := s.Run(sc, rep)
		fmt.Fprint(w, text)
		if err != nil {
			return cli.Interrupted(err, "interrupted at %d/%d sections; the report above covers the completed ones", done, total)
		}
	}
	return nil
}

// reportSections lists the sections of -exp report: the registry's
// report without Table 2 when skipMarkov, then the -metrics and -reps
// companions when asked for.
func reportSections(skipMarkov bool, metricsPath string, reps int) []experiments.Section {
	entries := experiments.Sections(time.Now)
	if skipMarkov {
		entries = slices.DeleteFunc(entries, func(s experiments.Section) bool { return s.Name == "table2" })
	}
	if metricsPath != "" {
		entries = append(entries, metricsSection(metricsPath))
	}
	if reps > 0 {
		entries = append(entries, experiments.Section{
			Title: fmt.Sprintf("Replication — saturation throughput across %d seeds", reps),
			Run: experiments.Entry(func(sc experiments.Scale) ([]experiments.CIRow, error) {
				return experiments.SaturationCI(reps, sc)
			}, experiments.RenderCI, nil)})
	}
	return entries
}

// metricsSection runs one over-subscribed blocking DAMQ network with no
// warmup and writes its observer snapshot to path. The ramp from empty
// network to saturation sweeps through every operating point Figure 3
// samples one load at a time, so the section recovers the curve from
// the snapshot's time series.
func metricsSection(path string) experiments.Section {
	return experiments.Section{
		Title: "Companion — Figure 3 from one instrumented run (observer time series)",
		Run: func(sc experiments.Scale, _ *experiments.Report) (string, error) {
			_, snap, err := experiments.InstrumentedRun(netsim.Config{
				BufferKind:    damq.DAMQ,
				Capacity:      4,
				Policy:        damq.SmartArbitration,
				Protocol:      damq.Blocking,
				Traffic:       netsim.TrafficSpec{Kind: netsim.Uniform, Load: 1.0},
				WarmupCycles:  1,
				MeasureCycles: sc.Warmup + sc.Measure,
				Seed:          sc.Seed,
			}, max(sc.Measure/100, 1))
			if err == nil {
				err = cli.WriteFile(path, snap.Encode)
			}
			if err != nil {
				return "", err
			}
			curve := experiments.CurveFromIntervals("DAMQ/4 (one run)", 64, snap.Series)
			return experiments.RenderFigure3([]damq.Figure3Series{curve}) +
				fmt.Sprintf("\nmetrics snapshot written to %s\n", path), nil
		},
	}
}

// table2Cell solves one cell of Table 2 exactly (-exp table2 -kind K)
// and renders its diagnostics; sim > 0 also estimates the discard
// probability by Monte-Carlo over that many cycles from seed.
func table2Cell(kindName string, slots int, load float64, sim int64, seed uint64) (string, error) {
	k, err := damq.ParseBufferKind(kindName)
	if err != nil {
		return "", err
	}
	r, err := markov2x2.Solve(k, slots, load)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "buffer        %v\n", r.Kind)
	fmt.Fprintf(&b, "slots/port    %d\n", r.Slots)
	fmt.Fprintf(&b, "traffic       %.0f%%\n", r.Load*100)
	fmt.Fprintf(&b, "chain states  %d\n", r.States)
	fmt.Fprintf(&b, "P(discard)    %.6f\n", r.PDiscard)
	fmt.Fprintf(&b, "throughput    %.6f packets/port/cycle\n", r.Throughput)
	if sim > 0 {
		mc, err := markov2x2.Simulate(k, slots, load, sim, rng.New(seed))
		if err != nil {
			return b.String(), err
		}
		fmt.Fprintf(&b, "monte-carlo   %.6f over %d cycles (seed %d)\n", mc.PDiscard(), sim, seed)
	}
	return b.String(), nil
}

// chipTrace runs the chip testbench for -exp chip and renders its event
// schedule, the cut-through turn-around, the packets delivered at
// output 1 and, under faults, the recovery counts. An interrupted run
// renders the completed prefix.
func chipTrace(ctx context.Context, nbytes int, busy bool, spec string) (string, error) {
	if nbytes < 1 || nbytes > 32 {
		return "", errors.New("-bytes must be 1..32")
	}
	faults, err := damq.ParseFaultSpec(spec)
	if err != nil {
		return "", err
	}
	r, err := experiments.RunChip(ctx, nbytes, busy, faults)
	if r == nil {
		return "", err
	}
	var b strings.Builder
	busyNote := ""
	if busy {
		busyNote = ", destination output pre-occupied"
	}
	fmt.Fprintf(&b, "ComCoBB chip trace (%d payload bytes%s):\n\n", nbytes, busyNote)
	for _, e := range r.Chip.Trace().Events {
		fmt.Fprintln(&b, " ", e)
	}
	if ta, ok := r.TurnAround(); ok {
		fmt.Fprintf(&b, "\nturn-around: %d clock cycles (paper Table 1: 4 for cut-through)\n", ta)
	}
	for _, p := range r.Chip.Delivered(1) {
		fmt.Fprintf(&b, "delivered at output 1: header %#02x, %d bytes\n", p.Header, len(p.Data))
	}
	if faults.Enabled() {
		st := r.Chip.FaultStats()
		fmt.Fprintf(&b, "\nfault summary: %d bytes corrupted, %d NACKs, %d packets dropped at receiver, %d poisoned\n",
			st.Corrupted, st.Nacks, st.Dropped, st.Poisoned)
		fmt.Fprintf(&b, "driver recovery: %d retransmissions, %d given up\n", r.Driver.Retries(), r.Driver.GaveUp())
	}
	return b.String(), err
}

// faultRates reads -faults for -exp faults. The curve compares a
// fault-free network with one at a single link-transient rate; its other
// fault classes and its fault seed derive from that rate and -seed. A
// spec that sets any other field is rejected, not silently dropped.
func faultRates(spec string) ([]float64, error) {
	for _, field := range strings.Split(spec, ",") {
		key, _, _ := strings.Cut(field, "=")
		if key = strings.TrimSpace(key); key != "" && !strings.EqualFold(key, "linktransient") {
			return nil, fmt.Errorf("-exp faults takes only linktransient from -faults, not %s", key)
		}
	}
	fc, err := damq.ParseFaultSpec(spec)
	if err != nil || fc.LinkTransientRate <= 0 {
		return nil, err
	}
	return []float64{0, fc.LinkTransientRate}, nil
}

// parseList parses every element of a comma-separated list.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// sweep runs the grid of every -kinds, -caps and -loads combination,
// sharing -protocol, -policy and -hot with -exp run, and writes its CSV
// to stdout or to path: the cells it completed, even when interrupted.
// A file counts as written only once it is closed.
func sweep(sc experiments.Scale, path, kinds, loads, caps, protoName, policyName, trafficName string, hot, burst float64) error {
	g := experiments.Grid{HotFraction: hot, MeanBurst: burst}
	var errKinds, errLoads, errCaps, errProto, errPolicy, errTraffic error
	var ok bool
	g.Kinds, errKinds = parseList(kinds, damq.ParseBufferKind)
	g.Loads, errLoads = parseList(loads, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	g.Capacities, errCaps = parseList(caps, strconv.Atoi)
	g.Protocol, errProto = damq.ParseProtocol(protoName)
	g.Policy, errPolicy = damq.ParseArbitrationPolicy(policyName)
	if g.Traffic, ok = sweepTraffic[trafficName]; !ok {
		errTraffic = fmt.Errorf("unknown traffic %q (want uniform|hotspot|bursty)", trafficName)
	}
	if err := errors.Join(errKinds, errLoads, errCaps, errProto, errPolicy, errTraffic); err != nil {
		return err
	}

	points, err := g.Run(sc)
	if err != nil && !cli.Canceled(err) {
		return err
	}
	var werr error
	if path == "" {
		werr = experiments.WriteCSV(os.Stdout, points)
	} else if werr = cli.WriteFile(path, func() ([]byte, error) {
		var b bytes.Buffer
		err := experiments.WriteCSV(&b, points)
		return b.Bytes(), err
	}); werr == nil {
		fmt.Printf("wrote %d rows to %s\n", len(points), path)
	}
	if werr != nil {
		return werr
	}
	return cli.Interrupted(err, "interrupted at %d/%d points; CSV holds the completed cells", len(points), g.Points())
}

// runOne runs one network, optionally checkpointed or resumed, and
// prints its summary; an interrupted run prints the completed prefix.
func runOne(ctx context.Context, kindName string, shared bool, load float64, inputs, capacity int, protoName, policyName string, hot float64, sc experiments.Scale, workersSet bool, metricsPath string, metricsInterval int64, faultsSpec string, ckptEvery int64, ckptFile, resumePath string) error {
	if ckptEvery > 0 && ckptFile == "" {
		return errors.New("-checkpoint-every requires -checkpoint-file")
	}
	var observer *damq.Observer
	var opts []damq.Option
	if workersSet {
		// For a single run the workers knob means intra-run sharding: the
		// one network is stepped across cores, byte-identically.
		opts = append(opts, damq.WithWorkers(sc.Workers))
	}
	if metricsPath != "" {
		observer = damq.NewObserver()
		observer.SetInterval(metricsInterval)
		opts = append(opts, damq.WithObserver(observer))
	}

	var sim *damq.NetworkSim
	var faults damq.FaultConfig
	if resumePath != "" {
		// The checkpoint carries the topology, seed, progress, and fault
		// schedule; only the execution knobs above may be re-chosen.
		if faultsSpec != "" {
			return errors.New("-faults cannot be combined with -resume: the fault schedule is part of the checkpoint")
		}
		raw, err := os.ReadFile(resumePath)
		if err == nil {
			sim, err = damq.Restore(bytes.NewReader(raw), opts...)
		}
		if err != nil {
			return err
		}
	} else {
		kind, sharing, err := damq.ParseBufferSpec(kindName)
		pol, errPolicy := damq.ParseArbitrationPolicy(policyName)
		proto, errProto := damq.ParseProtocol(protoName)
		var errFaults error
		faults, errFaults = damq.ParseFaultSpec(faultsSpec)
		if err = errors.Join(err, errPolicy, errProto, errFaults); err != nil {
			return err
		}
		spec := damq.TrafficSpec{Kind: damq.UniformTraffic, Load: load}
		if hot > 0 {
			spec = damq.TrafficSpec{Kind: damq.HotSpotTraffic, Load: load, HotFraction: hot}
		}
		if faultsSpec != "" {
			opts = append(opts, damq.WithFaults(faults))
		}
		sim, err = damq.NewNetwork(damq.NetworkConfig{
			Inputs: inputs, BufferKind: kind, Capacity: capacity, SharedPool: shared, Sharing: sharing,
			Policy: pol, Protocol: proto, Traffic: spec,
			WarmupCycles: sc.Warmup, MeasureCycles: sc.Measure, Seed: sc.Seed,
		}, opts...)
		if err != nil {
			return err
		}
	}
	defer sim.Close()

	var save func() error
	if ckptFile != "" {
		save = func() error { return checkpoint.WriteFile(ckptFile, sim.Checkpoint) }
	}
	targetCycles := sim.Config().MeasureCycles
	res, runErr := sim.RunCtxCheckpoint(ctx, ckptEvery, save)
	if runErr != nil && !cli.Canceled(runErr) {
		return runErr
	}
	if observer != nil {
		if err := cli.WriteFile(metricsPath, observer.Snapshot().Encode); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", metricsPath)
	}
	cfg := res.Config // the resolved config: flag-derived or checkpointed
	poolNote := ""
	if cfg.SharedPool {
		poolNote = ", switch-wide shared pool"
	}
	fmt.Printf("buffer              %v (%d slots%s)\n", cfg.BufferKind, cfg.Capacity, poolNote)
	fmt.Printf("protocol            %v, %v arbitration\n", cfg.Protocol, cfg.Policy)
	fmt.Printf("offered load        %.3f\n", res.OfferedLoad())
	fmt.Printf("throughput          %.3f packets/input/cycle\n", res.Throughput())
	fmt.Printf("latency (born)      %.1f clocks (±%.1f)\n", res.LatencyFromBorn.Mean(), res.LatencyFromBorn.CI95())
	fmt.Printf("latency (injected)  %.1f clocks\n", res.LatencyFromInjection.Mean())
	fmt.Printf("discarded           %.2f%% of generated\n", 100*res.DiscardFraction())
	fmt.Printf("mean occupancy      %.2f packets/switch\n", res.Occupancy.Mean())
	fmt.Printf("source backlog      %.1f packets\n", res.SourceBacklog.Mean())
	if faults.Enabled() || res.FaultedInNet > 0 {
		fmt.Printf("faulted in net      %.2f%% of injected (%d packets)\n", 100*res.FaultFraction(), res.FaultedInNet)
	}
	if runErr == nil {
		if ckptFile != "" && ckptEvery > 0 {
			fmt.Printf("checkpoints written to %s\n", ckptFile)
		}
		return nil
	}
	fmt.Printf("interrupted at %d/%d measured cycles; results above cover the completed prefix\n",
		res.Config.MeasureCycles, targetCycles)
	if ckptFile != "" {
		fmt.Printf("checkpoint saved to %s; continue with: omegasim -exp run -resume %s\n", ckptFile, ckptFile)
	}
	return cli.Interrupted(runErr, "interrupted at %d/%d measured cycles", res.Config.MeasureCycles, targetCycles)
}
