package core

import (
	"fmt"

	"microgrid/internal/autopilot"
	"microgrid/internal/metrics"
	"microgrid/internal/npb"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

// fig16Scenario is one CACTUS WaveToy arm: physical or emulated at the
// validation rate.
func fig16Scenario(edge, steps int, emulated bool) *scenario.Scenario {
	s := &scenario.Scenario{
		Name:     "fig16-cactus",
		Seed:     16,
		Target:   machinePtr(AlphaCluster),
		Workload: &scenario.Workload{Kind: "cactus", Edge: edge, Steps: steps},
	}
	if emulated {
		emulateOn(s, AlphaCluster, fig10Rate)
	}
	return s
}

// Fig16Scenario is the representative Fig. 16 arm: WaveToy at grid edge
// 250, emulated.
func Fig16Scenario() *scenario.Scenario {
	s := fig16Scenario(250, 100, true)
	s.Description = "CACTUS WaveToy at grid edges 50 and 250: physical vs MicroGrid"
	return s
}

// Fig16Cactus reproduces the full-application validation (Fig. 16):
// CACTUS WaveToy at grid edges 50 and 250 on the Alpha-cluster model,
// physical vs MicroGrid. The paper matches within 5–7%.
func Fig16Cactus(x *ExperimentRun) (*Experiment, error) {
	edges := []int{50, 250}
	steps := 100
	if x.Quick {
		edges = []int{50}
		steps = 20
	}
	tbl := metrics.NewTable("Fig. 16 — CACTUS WaveToy: physical vs MicroGrid",
		"grid_edge", "pgrid_s", "mgrid_s", "err_%")
	m := map[string]float64{}
	worst := 0.0
	for _, edge := range edges {
		pr, err := x.Run(fig16Scenario(edge, steps, false))
		if err != nil {
			return nil, err
		}
		er, err := x.Run(fig16Scenario(edge, steps, true))
		if err != nil {
			return nil, err
		}
		errPct := metrics.PercentError(er.VirtualElapsed.Seconds(), pr.VirtualElapsed.Seconds())
		tbl.AddRow(edge, pr.VirtualElapsed.Seconds(), er.VirtualElapsed.Seconds(), errPct)
		m[fmt.Sprintf("edge%d_pgrid_s", edge)] = pr.VirtualElapsed.Seconds()
		m[fmt.Sprintf("edge%d_mgrid_s", edge)] = er.VirtualElapsed.Seconds()
		m[fmt.Sprintf("edge%d_err_pct", edge)] = errPct
		if errPct > worst {
			worst = errPct
		}
	}
	m["worst_err_pct"] = worst
	return &Experiment{
		ID:      "fig16",
		Title:   "CACTUS WaveToy validation",
		Table:   tbl,
		Metrics: m,
		Notes:   []string{"Paper: excellent match, within 5 to 7%."},
	}, nil
}

// fig17Scenario is one Autopilot-traced arm: the kernel plus the virtual
// sampling period ride in the scenario's workload.
func fig17Scenario(bench string, class npb.Class, period simcore.Duration, emulated bool, rate float64) *scenario.Scenario {
	s := npbScenario("fig17-autopilot", 17, AlphaCluster, bench, class)
	s.Workload.SamplePeriod = period
	if emulated {
		emulateOn(s, AlphaCluster, rate)
	}
	return s
}

// Fig17Scenario is the representative Fig. 17 arm: EP class A emulated
// at the paper's 4% CPU rate, sampled every virtual second.
func Fig17Scenario() *scenario.Scenario {
	s := fig17Scenario("EP", npb.ClassA, simcore.Second, true, 0.04)
	s.Description = "Autopilot counter traces, physical vs MicroGrid, compared by RMS skew"
	return s
}

// runNPBTraced runs the scenario's kernel with an Autopilot sensor
// attached to its iteration counter on rank 0, sampled every
// Workload.SamplePeriod of virtual time.
func runNPBTraced(x *ExperimentRun, s *scenario.Scenario) ([]autopilot.Sample, *Report, error) {
	m, err := x.Build(s)
	if err != nil {
		return nil, nil, err
	}
	w := s.Workload
	fn, err := npb.Get(w.Bench)
	if err != nil {
		return nil, nil, err
	}
	sensorName := w.Bench + "-counter"
	report, err := m.RunApp("traced-"+w.Bench, func(ctx *AppContext) error {
		var sensor *autopilot.Sensor
		if ctx.Comm.Rank() == 0 {
			sensor = ctx.Collector.Register(sensorName)
		}
		hooks := &npb.Hooks{Progress: func(rank, iter int, v float64) {
			if rank == 0 && sensor != nil {
				// The paper plots "a periodic function of counter
				// variables"; for the RMS skew we track the monotone
				// counter itself — a sawtooth's discontinuities make the
				// percentage metric ill-conditioned, while progress-vs-
				// time captures the same "closely follows" comparison.
				sensor.Set(float64(iter + 1))
			}
		}}
		return fn(ctx.Comm, npb.Params{Class: npb.Class(w.Class), Hooks: hooks})
	}, ScenarioRunOptions(s))
	if err != nil {
		return nil, nil, err
	}
	return report.Traces[sensorName], report, nil
}

// Fig17Autopilot reproduces the internal validation (Fig. 17): Autopilot
// traces of EP, BT and MG counters from the physical system and the
// MicroGrid, compared by RMS percentage skew. The paper reports 3.08% for
// EP, 2.02% for BT and 8.33% for MG. The paper's MicroGrid ran at 4% CPU
// (rate 0.04), sampling every 25 wallclock seconds = 1 virtual second.
func Fig17Autopilot(x *ExperimentRun) (*Experiment, error) {
	type job struct {
		bench string
		class npb.Class
	}
	jobs := []job{{"EP", npb.ClassA}, {"BT", npb.ClassA}, {"MG", npb.ClassA}}
	rate := 0.04
	period := simcore.Second
	if x.Quick {
		jobs = []job{{"EP", npb.ClassS}, {"MG", npb.ClassS}}
		rate = 0.25
		// Class S runs are sub-second; sample at 10 ms of virtual time so
		// the traces still have enough points to compare.
		period = 10 * simcore.Millisecond
	}
	tbl := metrics.NewTable("Fig. 17 — Autopilot internal validation",
		"bench", "samples", "rms_skew_%")
	m := map[string]float64{}
	for _, j := range jobs {
		physTrace, _, err := runNPBTraced(x, fig17Scenario(j.bench, j.class, period, false, 0))
		if err != nil {
			return nil, fmt.Errorf("fig17 %s physical: %w", j.bench, err)
		}
		emuTrace, _, err := runNPBTraced(x, fig17Scenario(j.bench, j.class, period, true, rate))
		if err != nil {
			return nil, fmt.Errorf("fig17 %s emulated: %w", j.bench, err)
		}
		skew, samples, err := autopilot.Skew(emuTrace, physTrace)
		if err != nil {
			return nil, fmt.Errorf("fig17 %s skew: %w", j.bench, err)
		}
		tbl.AddRow(j.bench, samples, skew)
		m[j.bench+"_skew_pct"] = skew
		m[j.bench+"_samples"] = float64(samples)
	}
	return &Experiment{
		ID:      "fig17",
		Title:   "Internal behaviour: Autopilot counter traces, physical vs MicroGrid",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Paper: RMS skew 3.08% (EP), 2.02% (BT), 8.33% (MG); MicroGrid at 4% CPU",
			"(simulation rate 0.04), sampled every 1 virtual second.",
		},
	}, nil
}
