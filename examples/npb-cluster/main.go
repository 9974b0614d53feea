// NPB on a virtual cluster: the paper's headline validation in miniature.
// Runs a NAS Parallel Benchmark twice — once directly on a model of the
// Alpha cluster (the "physical grid" reference) and once emulated by the
// MicroGrid at half speed — then compares total run times in virtual
// time, as in Figure 10.
//
//	go run ./examples/npb-cluster           # MG, class S
//	go run ./examples/npb-cluster -bench LU -class A
package main

import (
	"flag"
	"fmt"
	"log"

	"microgrid"
)

func main() {
	bench := flag.String("bench", "MG", "NPB kernel: EP, BT, LU, MG, IS")
	classStr := flag.String("class", "A", "problem class: S, W, A (validation is tightest at A; S exposes quantum effects)")
	rate := flag.Float64("rate", 0.5, "MicroGrid simulation rate for the emulated run")
	flag.Parse()

	class := microgrid.NPBClass((*classStr)[0])

	// One scenario declares the whole run — grid, workload, emulation
	// policy; the physical arm simply drops the emulate/rate lines.
	run := func(emulated bool) float64 {
		alpha := microgrid.AlphaCluster
		s := &microgrid.Scenario{
			Name:   "npb-cluster",
			Seed:   42,
			Target: &alpha,
			Workload: &microgrid.ScenarioWorkload{
				Kind: "npb", Bench: *bench, Class: byte(class),
			},
		}
		label := "physical grid (direct model)"
		if emulated {
			s.Emulation = &alpha
			s.Rate = *rate
			label = fmt.Sprintf("MicroGrid (emulated at rate %.2f)", *rate)
		}
		report, err := microgrid.RunScenario(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s %8.3f virtual s  (%8.3f emulation s)\n",
			label, report.VirtualElapsed.Seconds(), report.PhysicalElapsed.Seconds())
		return report.VirtualElapsed.Seconds()
	}

	fmt.Printf("NPB %s class %c on 4 virtual 533 MHz Alphas / 100Mb Ethernet\n\n", *bench, class)
	phys := run(false)
	emu := run(true)
	fmt.Printf("\nmodeling error: %.2f%%\n", 100*abs(emu-phys)/phys)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
