// GIS-driven grid: define an entire virtual grid as LDIF records — the
// paper's Fig.-3-style virtual host and network entries — then build a
// MicroGrid straight from the directory and run a job on it. This is the
// paper's own bootstrap path: the virtual grid's configuration lives in
// the (virtualized) Grid Information Service.
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"microgrid"
)

// The grid definition: two slow virtual machines mapped onto one fast
// physical machine, exactly the paper's "Slow_CPU_Configuration" idea.
// slow-cpu.scenario runs the same records through mgrid -scenario.
//
//go:embed slow-cpu.ldif
var gridLDIF string

func main() {
	server, err := microgrid.LoadGIS(strings.NewReader(gridLDIF))
	if err != nil {
		log.Fatal(err)
	}

	// The scenario references the grid by configuration name; the
	// already-loaded directory is supplied through the environment, so
	// no LDIF file needs to exist on disk. Both 100 MIPS virtual
	// machines share one 533 MIPS physical machine; rate 0 picks the
	// fastest feasible simulation rate automatically from the resource
	// specifications (§2.3).
	s := &microgrid.Scenario{
		Name: "gis-defined-grid",
		Seed: 1,
		GIS: &microgrid.ScenarioGIS{
			Config:   "Slow_CPU_Configuration",
			PhysMIPS: map[string]float64{"csag-226-67.ucsd.edu": 533},
		},
	}
	m, err := microgrid.BuildScenarioEnv(s, microgrid.ScenarioEnv{GIS: server})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %q: hosts %v\n", m.ConfigName, m.Hosts)
	fmt.Printf("feasible simulation rate: %.3f (two 100 MIPS VMs on one 533 MIPS machine)\n\n", m.Rate())

	report, err := m.RunApp("pingpong", func(ctx *microgrid.AppContext) error {
		c := ctx.Comm
		fmt.Printf("rank %d on %s (a %0.f MIPS virtual machine)\n",
			c.Rank(), ctx.Proc.Gethostname(), 100.0)
		// Half a virtual second of computation, then an exchange.
		ctx.Proc.ComputeVirtualSeconds(0.5)
		peer := 1 - c.Rank()
		_, _, err := c.Sendrecv(peer, 1, 4096, nil, peer, 1)
		return err
	}, microgrid.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvirtual time: %.3fs;  emulation (wallclock) time: %.3fs\n",
		report.VirtualElapsed.Seconds(), report.PhysicalElapsed.Seconds())
	fmt.Println("the application perceived full-speed 100 MIPS machines throughout")
}
