// Full-application run: the CACTUS WaveToy PDE solver (the paper's §3.5
// validation) driven by a Cactus-style parameter file, with an Autopilot
// sensor sampling the solver's progress — physical vs MicroGrid, as in
// Figure 16.
//
//	go run ./examples/cactus-wavetoy
//	go run ./examples/cactus-wavetoy -size 100 -steps 50
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"microgrid"
)

const parFileTemplate = `
# WaveToy over the MicroGrid
ActiveThorns = "wavetoy idscalarwave pugh"
driver::global_nsize = %d
cactus::cctk_itlast  = %d
wavetoy::bound       = "radiation"
`

func main() {
	size := flag.Int("size", 50, "grid edge (the paper uses 50 and 250)")
	steps := flag.Int("steps", 100, "evolution steps")
	flag.Parse()

	parText := fmt.Sprintf(parFileTemplate, *size, *steps)
	params, extra, err := microgrid.ParseWaveToyParFile(strings.NewReader(parText))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WaveToy: %d³ grid, %d steps (boundary %q)\n\n",
		params.GridEdge, params.Steps, extra["wavetoy::bound"])

	run := func(emulated bool) float64 {
		// The grid comes from a declarative scenario; the WaveToy run
		// itself stays a custom application function so the Autopilot
		// sensor can hook the solver's progress callback.
		alpha := microgrid.AlphaCluster
		s := &microgrid.Scenario{
			Name:   "cactus-wavetoy",
			Seed:   16,
			Target: &alpha,
		}
		label := "physical grid"
		if emulated {
			s.Emulation = &alpha
			s.Rate = 0.5
			label = "MicroGrid (rate 0.5)"
		}
		m, err := microgrid.BuildScenario(s)
		if err != nil {
			log.Fatal(err)
		}
		report, err := m.RunApp("wavetoy", func(ctx *microgrid.AppContext) error {
			p := params
			if ctx.Comm.Rank() == 0 {
				sensor := ctx.Collector.Register("wavetoy-step")
				p.Progress = func(rank, step int, _ float64) {
					if rank == 0 {
						sensor.Set(float64(step))
					}
				}
			}
			return microgrid.RunWaveToy(ctx, p)
		}, microgrid.RunOptions{SamplePeriod: 100 * 1000 * 1000 /* 100ms virtual */})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8.3f virtual s", label, report.VirtualElapsed.Seconds())
		if tr := report.Traces["wavetoy-step"]; len(tr) > 0 {
			fmt.Printf("   (autopilot: %d samples, final step %.0f)",
				len(tr), tr[len(tr)-1].Value)
		}
		fmt.Println()
		return report.VirtualElapsed.Seconds()
	}

	phys := run(false)
	emu := run(true)
	fmt.Printf("\nmodeling error: %.2f%% (paper: within 5–7%%)\n", 100*abs(emu-phys)/phys)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
