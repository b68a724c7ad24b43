// Command markov reproduces the paper's Table 2: exact Markov analysis of
// 2×2 discarding switches for all four buffer organizations.
//
// Usage:
//
//	markov                 # the full table, paper layout
//	markov -kind damq -slots 3 -load 0.9   # one cell, with diagnostics
package main

import (
	"context"
	"flag"
	"fmt"

	"damq"
	"damq/internal/cli"
	"damq/internal/experiments"
	"damq/internal/markov2x2"
	"damq/internal/rng"
)

func main() {
	kind := flag.String("kind", "", "buffer kind (fifo|samq|safc|damq|dafc); empty = full table")
	slots := flag.Int("slots", 4, "slots per input port")
	load := flag.Float64("load", 0.9, "traffic level in [0,1]")
	simCycles := flag.Int64("sim", 0, "also cross-check the cell by Monte-Carlo for this many cycles")
	seed := flag.Uint64("seed", 1988, "Monte-Carlo seed")
	workers := flag.Int("workers", 0, "full table: max concurrent chain solves (0 = GOMAXPROCS)")
	flag.Parse()

	cli.Main("markov", func(ctx context.Context) error {
		if *kind == "" {
			// SIGINT/SIGTERM cancel the solve; finished rows are still
			// rendered.
			res, total, err := experiments.Table2Ctx(ctx, nil, *workers)
			if err != nil && !cli.Canceled(err) {
				return err
			}
			fmt.Print(res.Render())
			return cli.Interrupted(err, "interrupted at %d/%d rows; the table above covers the completed ones", len(res.Rows), total)
		}

		k, err := damq.ParseBufferKind(*kind)
		if err != nil {
			return err
		}
		r, err := markov2x2.Solve(k, *slots, *load)
		if err != nil {
			return err
		}
		fmt.Printf("buffer        %v\n", r.Kind)
		fmt.Printf("slots/port    %d\n", r.Slots)
		fmt.Printf("traffic       %.0f%%\n", r.Load*100)
		fmt.Printf("chain states  %d\n", r.States)
		fmt.Printf("P(discard)    %.6f\n", r.PDiscard)
		fmt.Printf("throughput    %.6f packets/port/cycle\n", r.Throughput)

		if *simCycles > 0 {
			sim, err := markov2x2.Simulate(k, *slots, *load, *simCycles, rng.New(*seed))
			if err != nil {
				return err
			}
			fmt.Printf("monte-carlo   %.6f over %d cycles (seed %d)\n",
				sim.PDiscard(), *simCycles, *seed)
		}
		return nil
	})
}
