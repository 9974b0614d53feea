package core

import (
	"fmt"

	"microgrid/internal/cpusched"
	"microgrid/internal/memmodel"
	"microgrid/internal/metrics"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

// Fig05Scenario carries the Fig. 5 metadata; the memory model is probed
// analytically, with no engine run.
func Fig05Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "fig05-memory",
		Description: "memory capacity enforcement: max allocation vs specified limit",
		Seed:        5,
		Target:      machinePtr(AlphaCluster),
	}
}

// Fig05Memory reproduces the memory micro-benchmark (paper §3.2.1,
// Fig. 5): across specified limits from 1 KB to 1 MB, a process can
// allocate the limit minus ~1 KB of process overhead, linearly.
func Fig05Memory(x *ExperimentRun) (*Experiment, error) {
	limitsKB := []int64{1, 2, 5, 10, 20, 50, 100, 200, 400, 600, 800, 1000}
	if x.Quick {
		limitsKB = []int64{1, 10, 100, 1000}
	}
	tbl := metrics.NewTable("Fig. 5 — memory capacity enforcement",
		"limit_kb", "allocated_kb", "shortfall_bytes")
	var xs, ys []float64
	for _, kb := range limitsKB {
		limit := kb * 1024
		got := memmodel.MaxAllocatable(limit, 256)
		tbl.AddRow(kb, float64(got)/1024, limit-got)
		xs = append(xs, float64(limit))
		ys = append(ys, float64(got))
	}
	slope, intercept, err := metrics.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:    "fig05",
		Title: "Memory micro-benchmark: max allocation vs specified limit",
		Table: tbl,
		Metrics: map[string]float64{
			"slope":             slope,
			"intercept_bytes":   intercept,
			"overhead_bytes":    -intercept,
			"expected_overhead": memmodel.ProcessOverheadBytes,
		},
		Notes: []string{
			"Paper: clear linear correlation; ~1KB less than the limit is allocatable.",
		},
	}, nil
}

// Fig06Scenario defines the processor micro-benchmark's machine: the
// measurement runs one host under the scheduler daemon every emulated
// grid runs, from this spec (seed and CPU speed are sourced from here).
func Fig06Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "fig06-cpu-fraction",
		Description: "processor fraction enforcement, alone and under IO/CPU competition",
		Seed:        6,
		Target:      machinePtr(AlphaCluster),
	}
}

// fig06Measure runs the processor micro-benchmark for one requested
// fraction under a competition mode, returning the delivered fraction.
func fig06Measure(sc *scenario.Scenario, fraction float64, competition string, seconds float64) float64 {
	eng := simcore.NewEngine(sc.Seed)
	h := cpusched.NewHost(eng, "alpha", sc.Target.CPUMIPS, 0)
	switch competition {
	case "cpu":
		h.StartCompetitor("hog")
	case "io":
		cpusched.StartIOCompetitor(h, "io")
	}
	job := h.NewTask("reference")
	mc := cpusched.NewMultiController(h)
	if _, err := mc.AddJob(job, fraction); err != nil {
		return -1
	}
	mc.Spawn()
	jp := eng.Spawn("job", func(p *simcore.Proc) {
		for {
			job.ComputeSeconds(p, 1)
		}
	})
	jp.SetDaemon(true)
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(simcore.DurationOfSeconds(seconds))
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		return -1
	}
	return job.UsedCPU().Seconds() / seconds
}

// Fig06CPUFraction reproduces the processor micro-benchmark (Fig. 6):
// delivered CPU fraction vs specified fraction, with no competition and
// with IO- and CPU-intensive competitors. The paper's findings: accurate
// tracking up to ~95% alone, and failure to deliver above ~40–50% under
// competition.
func Fig06CPUFraction(x *ExperimentRun) (*Experiment, error) {
	fractions := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	seconds := 30.0
	if x.Quick {
		fractions = []float64{0.20, 0.50, 0.90}
		seconds = 10
	}
	tbl := metrics.NewTable("Fig. 6 — processor fraction enforcement",
		"specified_%", "none_%", "io_%", "cpu_%")
	sc := Fig06Scenario()
	m := map[string]float64{}
	for _, f := range fractions {
		none := fig06Measure(sc, f, "none", seconds)
		io := fig06Measure(sc, f, "io", seconds)
		cpu := fig06Measure(sc, f, "cpu", seconds)
		tbl.AddRow(100*f, 100*none, 100*io, 100*cpu)
		key := fmt.Sprintf("spec%02.0f", f*100)
		m[key+"_none"] = 100 * none
		m[key+"_io"] = 100 * io
		m[key+"_cpu"] = 100 * cpu
	}
	return &Experiment{
		ID:      "fig06",
		Title:   "Processor micro-benchmark: delivered vs specified fraction",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Paper: matches specification up to ~95% alone; above ~40% the VM",
			"does not deliver the specified fraction under competition.",
		},
	}, nil
}

// Fig07Scenario defines the quanta-distribution machine (seed and CPU
// speed are sourced from here).
func Fig07Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "fig07-quanta",
		Description: "normalized quanta-size distribution under competition (~9000 samples)",
		Seed:        7,
		Target:      machinePtr(AlphaCluster),
	}
}

// Fig07QuantaDistribution reproduces the quanta-size stability test
// (Fig. 7): ~9000 samples of the scheduler's enabled-window lengths,
// normalized to mean 1, under the three competition modes. Paper:
// mean≈1.000/1.01/0.978 with deviations 0.002/0.015/0.027.
func Fig07QuantaDistribution(x *ExperimentRun) (*Experiment, error) {
	seconds := 90.0 // three ~30s sessions, ≈9000 quanta total at 10ms
	if x.Quick {
		seconds = 10
	}
	tbl := metrics.NewTable("Fig. 7 — normalized quanta-size distribution",
		"competition", "samples", "mean", "stddev")
	sc := Fig07Scenario()
	m := map[string]float64{}
	for _, comp := range []string{"none", "cpu", "io"} {
		eng := simcore.NewEngine(sc.Seed)
		h := cpusched.NewHost(eng, "alpha", sc.Target.CPUMIPS, 0)
		// Kernel realism for this measurement: preemption takes a
		// scheduler-tick-scale latency, and each control action's cost
		// carries cache/interrupt noise. These are what produce the
		// paper's nonzero deviations.
		h.PreemptLatencyMax = 300 * simcore.Microsecond
		switch comp {
		case "cpu":
			h.StartCompetitor("hog")
		case "io":
			cpusched.StartIOCompetitor(h, "io")
		}
		// The paper measures with "an inactive process that constantly
		// sleeps": no demand, the daemon cycles anyway.
		job := h.NewTask("inactive")
		mc := cpusched.NewMultiController(h)
		mc.DispatchJitter = 0.25
		cj, err := mc.AddJob(job, 0.5)
		if err != nil {
			return nil, err
		}
		var lengths []float64
		cj.OnQuantum = func(_ simcore.Time, l simcore.Duration) {
			lengths = append(lengths, l.Seconds())
		}
		mc.Spawn()
		eng.Spawn("end", func(p *simcore.Proc) {
			p.Sleep(simcore.DurationOfSeconds(seconds))
			eng.Stop()
		})
		if err := eng.Run(); err != nil {
			return nil, err
		}
		norm := metrics.Normalize(lengths)
		mean, dev := metrics.Mean(norm), metrics.StdDev(norm)
		tbl.AddRow(comp, len(norm), mean, dev)
		m["mean_"+comp] = mean
		m["dev_"+comp] = dev
		m["n_"+comp] = float64(len(norm))
	}
	return &Experiment{
		ID:      "fig07",
		Title:   "Quanta-size distribution under competition",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Paper: no-competition dev 0.002; CPU competition 0.015; IO 0.027.",
		},
	}, nil
}
