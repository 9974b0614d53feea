package microgrid_test

import (
	"context"
	"fmt"
	"strings"

	"microgrid"
)

// The minimal end-to-end flow: model the paper's Alpha cluster, run an
// MPI application through the virtualized Globus stack, read virtual-time
// results.
func ExampleBuild() {
	m, err := microgrid.Build(microgrid.BuildConfig{
		Seed:   1,
		Target: microgrid.AlphaCluster,
	})
	if err != nil {
		panic(err)
	}
	report, err := m.RunApp("demo", func(ctx *microgrid.AppContext) error {
		ctx.Proc.ComputeVirtualSeconds(1.0)
		return ctx.Comm.Barrier()
	}, microgrid.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d hosts, rate %.1f, ran %.1f virtual seconds\n",
		len(m.Hosts), m.Rate(), report.VirtualElapsed.Seconds())
	// Output: 4 hosts, rate 1.0, ran 1.0 virtual seconds
}

// Emulation mode: the same target modeled on physical machines at half
// speed. The application still observes one virtual second.
func ExampleBuild_emulated() {
	emu := microgrid.AlphaCluster
	m, err := microgrid.Build(microgrid.BuildConfig{
		Seed:      1,
		Target:    microgrid.AlphaCluster,
		Emulation: &emu,
		Rate:      0.5,
	})
	if err != nil {
		panic(err)
	}
	report, err := m.RunApp("demo", func(ctx *microgrid.AppContext) error {
		ctx.Proc.ComputeVirtualSeconds(1.0)
		return nil
	}, microgrid.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("virtual %.1fs, emulation wallclock ≈%.0fx longer\n",
		report.VirtualElapsed.Seconds(),
		report.PhysicalElapsed.Seconds()/report.VirtualElapsed.Seconds())
	// Output: virtual 1.0s, emulation wallclock ≈2x longer
}

// The campaign runner executes experiments on a worker pool, each in
// its own isolated engine. Tables and metrics are deterministic for any
// worker count; only wall-clock timings vary.
func ExampleRunCampaign() {
	tasks := microgrid.Campaign(microgrid.ExperimentRun{Quick: true})[:1] // fig05 at quick scale
	results := microgrid.RunCampaign(context.Background(), tasks,
		microgrid.CampaignOptions{Workers: 4})
	r := results[0]
	fmt.Printf("%s %s slope=%.3f\n", r.ID, r.Status, r.Experiment.Metrics["slope"])
	// Output: fig05 ok slope=1.000
}

// Grids can be defined entirely by GIS records (the paper's Fig. 3
// format): a scenario's GIS reference names the configuration, and
// BuildScenarioEnv resolves it against an in-memory directory.
func ExampleBuildScenarioEnv() {
	ldif := `
dn: hn=vm.ucsd.edu, ou=CSAG, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Demo
Mapped_Physical_Resource: csag-226-67.ucsd.edu
CpuSpeed: 10
MemorySize: 100MBytes
Virtual_IP: 1.11.11.2
`
	server, err := microgrid.LoadGIS(strings.NewReader(ldif))
	if err != nil {
		panic(err)
	}
	m, err := microgrid.BuildScenarioEnv(&microgrid.Scenario{
		Name: "demo",
		Seed: 1,
		GIS:  &microgrid.ScenarioGIS{File: "demo.ldif", Config: "Demo"},
	}, microgrid.ScenarioEnv{GIS: server})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %v\n", m.ConfigName, m.Hosts)
	// Output: Demo: [vm.ucsd.edu]
}
