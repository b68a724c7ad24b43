// Hot-spot traffic: the paper's Table 6 scenario via the public API.
//
// With 5% of all packets addressed to a single memory module, the tree
// of switches feeding that module saturates ("tree saturation", Pfister &
// Norton) and every buffer organization — including the DAMQ — hits the
// same throughput ceiling of ~0.24. This example reproduces that and
// shows the per-class latency split that explains it: hot packets crawl
// while cold packets still move, until the tree fills.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"

	"damq"
)

func main() {
	fmt.Println("64x64 Omega network, 5% hot-spot traffic, 4 slots/buffer, blocking protocol")
	fmt.Println()
	fmt.Printf("%-8s %22s %28s\n", "buffer", "throughput@offered=1.0", "hot vs cold latency @ 0.20")

	for _, kind := range []damq.BufferKind{damq.FIFO, damq.SAMQ, damq.SAFC, damq.DAMQ} {
		// Saturation: sources always backlogged.
		sat, err := damq.RunNetwork(hotCfg(kind, 1.0))
		if err != nil {
			log.Fatal(err)
		}
		// Moderate load: measure the class split.
		mid, err := damq.RunNetwork(hotCfg(kind, 0.20))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v %22.3f %14.1f / %-8.1f\n",
			kind, sat.Throughput(), mid.HotLatency.Mean(), mid.ColdLatency.Mean())
	}

	fmt.Println()
	fmt.Println("All four organizations saturate at ~0.24: the hot module's link is the")
	fmt.Println("bottleneck (0.05*64 + 0.95 ≈ 4.15x its capacity), so buffer structure")
	fmt.Println("cannot help — the paper's argument for a separate combining network.")
}

func hotCfg(kind damq.BufferKind, load float64) damq.NetworkConfig {
	return damq.NetworkConfig{
		BufferKind: kind,
		Capacity:   4,
		Policy:     damq.SmartArbitration,
		Protocol:   damq.Blocking,
		Traffic: damq.TrafficSpec{
			Kind:        damq.HotSpotTraffic,
			Load:        load,
			HotFraction: 0.05,
		},
		WarmupCycles:  2000,
		MeasureCycles: 6000,
		Seed:          7,
	}
}
