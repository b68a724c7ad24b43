// Command comcobb demonstrates the cycle/phase-accurate ComCoBB chip
// model: it pushes a packet through an idle chip and prints the Table-1
// event schedule showing virtual cut-through in four clock cycles.
//
// Usage:
//
//	comcobb              # 8-byte packet, full trace
//	comcobb -bytes 32    # longest packet
//	comcobb -busy        # destination port busy: packet is buffered
//	comcobb -faults "wirecorrupt=0.05,retries=4"  # inject wire faults; parity NACK + retransmit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"damq"
	"damq/internal/cli"
)

func main() {
	nbytes := flag.Int("bytes", 8, "payload bytes (1..32)")
	busy := flag.Bool("busy", false, "pre-occupy the destination output so the packet is buffered, not cut through")
	faultsSpec := flag.String("faults", "", `fault spec, e.g. "wirecorrupt=0.05,retries=4,seed=7" (see damq.ParseFaultSpec)`)
	flag.Parse()

	// SIGINT/SIGTERM stop the tick loops at a clock boundary; the trace
	// collected so far is still printed.
	cli.Main("comcobb", func(ctx context.Context) error {
		if *nbytes < 1 || *nbytes > 32 {
			return errors.New("-bytes must be 1..32")
		}
		faults, err := damq.ParseFaultSpec(*faultsSpec)
		if err != nil {
			return err
		}

		trace := &damq.ChipTrace{}
		chip := damq.NewChip(damq.ChipConfig{Trace: trace}, damq.WithFaults(faults))
		// Circuits: input 0 header 0x01 -> output 1; input 2 header 0x05 ->
		// output 1 (the competing stream for -busy).
		if err := errors.Join(chip.In(0).Router().Set(0x01, damq.Route{Out: 1, NewHeader: 0x02}),
			chip.In(2).Router().Set(0x05, damq.Route{Out: 1, NewHeader: 0x06})); err != nil {
			return err
		}

		payload := make([]byte, *nbytes)
		for i := range payload {
			payload[i] = byte(0xA0 + i)
		}

		ticks := 0
		// run ticks n times, or until a signal stops the run.
		run := func(n int, tick func()) {
			for i := 0; i < n && ctx.Err() == nil; i++ {
				tick()
				ticks++
			}
		}

		drv := damq.NewChipDriver(chip.InLink(0), damq.WithFaults(faults))
		step := func() { drv.Tick(); chip.Tick() }
		if *busy {
			competing := damq.NewChipDriver(chip.InLink(2))
			competing.Queue(0x05, make([]byte, 32), 0)
			both := func() { competing.Tick(); step() }
			// Let the competing packet win output 1 first.
			run(6, both)
			drv.Queue(0x01, payload, 0)
			run(120, both)
		} else {
			drv.Queue(0x01, payload, 0)
			run(*nbytes+40, step)
		}
		// Under injected faults the driver may still be retransmitting; keep
		// ticking until it drains (bounded), then flush the chip pipeline.
		for i := 0; i < 10_000 && drv.Pending() > 0 && ctx.Err() == nil; i++ {
			run(1, step)
		}
		run(8, step)

		busyNote := ""
		if *busy {
			busyNote = ", destination output pre-occupied"
		}
		fmt.Printf("ComCoBB chip trace (%d payload bytes%s):\n\n", *nbytes, busyNote)
		for _, e := range trace.Events {
			fmt.Println(" ", e)
		}

		in, ok1 := trace.Find("in[0]", "start bit detected; synchronizer armed")
		out, ok2 := trace.Find("out[1]", "start bit transmitted")
		if ok1 && ok2 {
			fmt.Printf("\nturn-around: %d clock cycles (paper Table 1: 4 for cut-through)\n", out.Cycle-in.Cycle)
		}
		for _, p := range chip.Delivered(1) {
			fmt.Printf("delivered at output 1: header %#02x, %d bytes\n", p.Header, len(p.Data))
		}
		if faults.Enabled() {
			st := chip.FaultStats()
			fmt.Printf("\nfault summary: %d bytes corrupted, %d NACKs, %d packets dropped at receiver, %d poisoned\n",
				st.Corrupted, st.Nacks, st.Dropped, st.Poisoned)
			fmt.Printf("driver recovery: %d retransmissions, %d given up\n", drv.Retries(), drv.GaveUp())
		}
		return cli.Interrupted(ctx.Err(), "interrupted after %d ticks; the trace above covers the completed prefix", ticks)
	})
}
