package core

import (
	"errors"
	"fmt"

	"microgrid/internal/chaos"
	"microgrid/internal/metrics"
	"microgrid/internal/mpi"
	"microgrid/internal/npb"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/virtual"
	"microgrid/internal/workqueue"
)

// The chaos experiments extend the paper's evaluation along the axis its
// introduction motivates but its figures never measure: reliability.
// Grid environments "exhibit extreme heterogeneity of configuration,
// performance, and reliability" (§1), so each experiment runs the same
// application three ways — undisturbed, under a fault with recovery
// enabled, and under the same fault with recovery disabled — and reports
// the measured completion-time inflation of recovery against the
// measured cost (or hang) of failing without it.

// frac scales a measured duration (for placing faults and deadlines
// relative to the undisturbed run time).
func frac(d simcore.Duration, f float64) simcore.Duration {
	return simcore.Duration(f * float64(d))
}

// ChaosCrashScenario is the chaos-crash base: NPB BT on five hosts with
// four ranks (one spare for failover). Arms add the fault schedule and
// the retry policy.
func ChaosCrashScenario() *scenario.Scenario {
	s := npbScenario("chaos-crash", 21, AlphaCluster.WithProcs(5), "BT", npb.ClassW)
	s.Description = "host crash during NPB BT: gatekeeper failover vs measured failure"
	s.Workload.Ranks = 4
	return s
}

// chaosCrashArm runs one chaos-crash arm. Failure arms get the partial
// report back alongside the error so the cost of giving up is still
// measured.
func chaosCrashArm(x *ExperimentRun, class npb.Class, sched string, retry *scenario.RetrySpec) (*Report, error) {
	s := ChaosCrashScenario()
	s.Workload.Class = byte(class)
	s.Retry = retry
	if sched != "" {
		cs, err := chaos.ParseScheduleString(sched)
		if err != nil {
			return nil, err
		}
		s.Chaos = cs
	}
	return x.Run(s)
}

// ChaosCrash kills a host mid-way through NPB BT and measures the
// gatekeeper-failover recovery: the crashed host's GIS record disappears,
// the client's submission times out, and the resubmission lands on the
// spare host. With retry disabled the same fault is a measured failure.
func ChaosCrash(x *ExperimentRun) (*Experiment, error) {
	class := npb.ClassW
	if x.Quick {
		class = npb.ClassS
	}
	baseRep, err := chaosCrashArm(x, class, "", nil)
	if err != nil {
		return nil, fmt.Errorf("chaos-crash baseline: %w", err)
	}
	base := baseRep.VirtualElapsed
	// vm1 runs rank 1 (vm0 also hosts the Globus client — keep it up).
	sched := fmt.Sprintf("schedule host-crash\nat %s crash vm1\n", frac(base, 0.35))

	retry := &scenario.RetrySpec{
		StatusTimeout: frac(base, 1.5),
		MaxAttempts:   3,
		Backoff:       100 * simcore.Millisecond,
	}
	recRep, err := chaosCrashArm(x, class, sched, retry)
	if err != nil {
		return nil, fmt.Errorf("chaos-crash recovery: %w", err)
	}

	noRetry := *retry
	noRetry.MaxAttempts = 1
	failRep, failErr := chaosCrashArm(x, class, sched, &noRetry)
	if failErr == nil {
		return nil, fmt.Errorf("chaos-crash: recovery-disabled run unexpectedly succeeded")
	}
	if failRep == nil {
		return nil, fmt.Errorf("chaos-crash: recovery-disabled run produced no report: %w", failErr)
	}

	tbl := metrics.NewTable(fmt.Sprintf("Chaos — host crash during NPB BT class %c (crash vm1 at 35%%)", class),
		"arm", "outcome", "attempts", "job_s")
	tbl.AddRow("baseline", "ok", baseRep.Attempts, baseRep.JobVirtual.Seconds())
	tbl.AddRow("crash+retry", "recovered", recRep.Attempts, recRep.JobVirtual.Seconds())
	tbl.AddRow("crash, no retry", "failed", failRep.Attempts, failRep.JobVirtual.Seconds())
	m := map[string]float64{
		"base_s":            baseRep.JobVirtual.Seconds(),
		"recovery_s":        recRep.JobVirtual.Seconds(),
		"recovery_attempts": float64(recRep.Attempts),
		"inflation_x":       recRep.JobVirtual.Seconds() / baseRep.JobVirtual.Seconds(),
		"failure_s":         failRep.JobVirtual.Seconds(),
		"failure_attempts":  float64(failRep.Attempts),
	}
	return &Experiment{
		ID:      "chaos-crash",
		Title:   "Host crash during NPB BT: gatekeeper failover vs measured failure",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Crashed host deregisters from the GIS; the retry re-discovers and lands on the spare host.",
			fmt.Sprintf("No-retry arm error: %v", failErr),
		},
	}, nil
}

// chaosFlapScenario is the chaos-flap base: NPB MG split two-and-two
// across the vBNS testbed.
func chaosFlapScenario() (*scenario.Scenario, error) {
	spec, err := topology.VBNSSpec(topology.VBNSConfig{HostsPerSite: 2})
	if err != nil {
		return nil, err
	}
	s := npbScenario("chaos-flap", 22, AlphaCluster, "MG", npb.ClassW)
	s.Topology = spec
	s.HostRanks = []string{"ucsd0", "ucsd1", "uiuc0", "uiuc1"}
	return s, nil
}

// ChaosFlapScenario is the registered chaos-flap base scenario.
func ChaosFlapScenario() *scenario.Scenario {
	s, err := chaosFlapScenario()
	if err != nil {
		// The built-in vBNS shape is statically valid; an error here is a
		// programming bug, not an input problem.
		panic(err)
	}
	s.Description = "WAN link flap on the vBNS testbed: retransmission vs partition"
	return s
}

// ChaosFlap runs NPB MG across the vBNS testbed while the backbone link
// flaps: TCP retransmission rides out the short outages at a measured
// completion-time cost. A permanent cut of the same link is the measured
// failure: the client gives up after its status timeout and the orphaned
// ranks are bounded by walltime and the transport's retransmission cap.
func ChaosFlap(x *ExperimentRun) (*Experiment, error) {
	class := npb.ClassW
	if x.Quick {
		class = npb.ClassS
	}
	arm := func(sched string) (*scenario.Scenario, error) {
		s, err := chaosFlapScenario()
		if err != nil {
			return nil, err
		}
		s.Workload.Class = byte(class)
		if sched != "" {
			cs, err := chaos.ParseScheduleString(sched)
			if err != nil {
				return nil, err
			}
			s.Chaos = cs
		}
		return s, nil
	}

	baseSc, err := arm("")
	if err != nil {
		return nil, err
	}
	baseRep, err := x.Run(baseSc)
	if err != nil {
		return nil, fmt.Errorf("chaos-flap baseline: %w", err)
	}
	base := baseRep.VirtualElapsed

	flapSc, err := arm(fmt.Sprintf(
		"schedule wan-flap\nat %s flap vbns-west vbns-east down=200ms up=300ms count=2\n",
		frac(base, 0.3)))
	if err != nil {
		return nil, err
	}
	flapRep, err := x.Run(flapSc)
	if err != nil {
		return nil, fmt.Errorf("chaos-flap flap arm: %w", err)
	}

	cutSc, err := arm(fmt.Sprintf("schedule wan-cut\nat %s linkdown vbns-west vbns-east\n", frac(base, 0.3)))
	if err != nil {
		return nil, err
	}
	bound := frac(base, 2.5) + 5*simcore.Second // past the transport's retransmission cap
	cutSc.Workload.MaxWallTime = bound
	cutSc.Retry = &scenario.RetrySpec{StatusTimeout: bound, MaxAttempts: 1}
	failRep, failErr := x.Run(cutSc)
	if failErr == nil {
		return nil, fmt.Errorf("chaos-flap: blackout arm unexpectedly succeeded")
	}
	if failRep == nil {
		return nil, fmt.Errorf("chaos-flap: blackout arm produced no report: %w", failErr)
	}

	tbl := metrics.NewTable(fmt.Sprintf("Chaos — vBNS backbone faults under NPB MG class %c", class),
		"arm", "outcome", "app_s", "job_s")
	tbl.AddRow("baseline", "ok", base.Seconds(), baseRep.JobVirtual.Seconds())
	tbl.AddRow("flap 2x200ms", "rode out", flapRep.VirtualElapsed.Seconds(), flapRep.JobVirtual.Seconds())
	tbl.AddRow("permanent cut", "failed", 0.0, failRep.JobVirtual.Seconds())
	m := map[string]float64{
		"base_s":      base.Seconds(),
		"flap_s":      flapRep.VirtualElapsed.Seconds(),
		"inflation_x": flapRep.VirtualElapsed.Seconds() / base.Seconds(),
		"blackout_s":  failRep.JobVirtual.Seconds(),
	}
	return &Experiment{
		ID:      "chaos-flap",
		Title:   "WAN link flap on the vBNS testbed: retransmission vs partition",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"Flapped outages stay under the retransmission cap, so the run completes, inflated.",
			fmt.Sprintf("Blackout arm error: %v", failErr),
		},
	}, nil
}

// ChaosWorkerScenario defines the farm's grid and workload: five
// Alpha-class hosts on a LAN, a self-scheduling master/worker sweep of
// 240 units. The arms toggle fault tolerance and the crash schedule.
func ChaosWorkerScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "chaos-worker",
		Description: "worker crash under the self-scheduling farm: re-dispatch vs hang",
		Seed:        23,
		Target:      machinePtr(AlphaCluster.WithProcs(5)),
		Workload: &scenario.Workload{
			Kind: "workqueue", Units: 240, OpsPerUnit: 1e7,
			Policy: "self", FaultTolerant: true, LostTimeout: simcore.Second,
		},
	}
}

// ChaosWorker crashes a worker under the self-scheduling master/worker
// farm. The fault-tolerant master re-dispatches the lost chunks and
// finishes late; the plain master waits forever for the lost report and
// the engine convicts the hang deterministically.
func ChaosWorker(x *ExperimentRun) (*Experiment, error) {
	sc := ChaosWorkerScenario()
	units, ops := sc.Workload.Units, sc.Workload.OpsPerUnit
	if x.Quick {
		units, ops = 60, 2e7
	}

	type armOut struct {
		res      *workqueue.Result
		master   simcore.Duration
		deadlock *simcore.DeadlockError
		hungAt   simcore.Time
	}
	// The farm drives mpi.LaunchWith directly (the workqueue needs
	// SkipExitBarrier on fault-tolerant runs, which RunApp does not
	// expose), but every parameter comes from the scenario.
	farm := func(ft bool, sched string) (*armOut, error) {
		eng := simcore.NewEngine(sc.Seed)
		t := sc.Target
		g, err := virtual.NewLANGrid(eng, "vm", t.Procs, t.CPUMIPS, t.CPUMIPS,
			t.NetBandwidthBps, t.NetPerSideDelay, 0, true, 0)
		if err != nil {
			return nil, err
		}
		hosts := make([]*virtual.Host, t.Procs)
		for i := range hosts {
			hosts[i] = g.Host(fmt.Sprintf("vm%d", i))
		}
		if sched != "" {
			s, err := chaos.ParseScheduleString(sched)
			if err != nil {
				return nil, err
			}
			in := chaos.NewInjector(eng, g.Network(), g)
			if err := in.Arm(s); err != nil {
				return nil, err
			}
		}
		cfg := workqueue.Config{
			Units: units, OpsPerUnit: ops, Policy: workqueue.SelfScheduling,
			FaultTolerant: ft, LostTimeout: sc.Workload.LostTimeout,
		}
		out := &armOut{}
		w, err := mpi.LaunchWith(g, hosts, "farm", 0,
			// A crashed rank never reaches the exit barrier; fault-tolerant
			// runs must not wait for it.
			mpi.LaunchOptions{SkipExitBarrier: ft},
			func(c *mpi.Comm) error {
				r, err := workqueue.Run(c, cfg)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					out.res = r
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		if err := eng.Run(); err != nil {
			var dl *simcore.DeadlockError
			if errors.As(err, &dl) {
				out.deadlock = dl
				out.hungAt = eng.Now()
				return out, nil
			}
			return nil, err
		}
		if err := w.Results[0].Err; err != nil {
			return nil, fmt.Errorf("master: %w", err)
		}
		out.master = w.Results[0].Elapsed()
		return out, nil
	}

	baseArm, err := farm(false, "")
	if err != nil {
		return nil, fmt.Errorf("chaos-worker baseline: %w", err)
	}
	base := baseArm.master
	sched := fmt.Sprintf("schedule worker-crash\nat %s crash vm2\n", frac(base, 0.4))

	ftArm, err := farm(true, sched)
	if err != nil {
		return nil, fmt.Errorf("chaos-worker fault-tolerant arm: %w", err)
	}
	if ftArm.res == nil || ftArm.res.UnitsDone != units {
		return nil, fmt.Errorf("chaos-worker: fault-tolerant master lost work: %+v", ftArm.res)
	}

	plainArm, err := farm(false, sched)
	if err != nil {
		return nil, fmt.Errorf("chaos-worker plain arm: %w", err)
	}
	if plainArm.deadlock == nil {
		return nil, fmt.Errorf("chaos-worker: plain master survived a worker crash")
	}

	tbl := metrics.NewTable("Chaos — worker crash under the self-scheduling farm",
		"arm", "outcome", "time_s", "units", "dead", "lost", "redispatched")
	tbl.AddRow("baseline", "ok", base.Seconds(), baseArm.res.UnitsDone, 0, 0, 0)
	tbl.AddRow("fault-tolerant", "recovered", ftArm.master.Seconds(),
		ftArm.res.UnitsDone, ftArm.res.DeadWorkers, ftArm.res.LostUnits, ftArm.res.RedispatchedUnits)
	tbl.AddRow("plain", "hung", plainArm.hungAt.Seconds(), 0, 0, 0, 0)
	m := map[string]float64{
		"base_s":       base.Seconds(),
		"ft_s":         ftArm.master.Seconds(),
		"inflation_x":  ftArm.master.Seconds() / base.Seconds(),
		"nonft_hung":   1,
		"hung_blocked": float64(len(plainArm.deadlock.Blocked)),
		"hung_at_s":    plainArm.hungAt.Seconds(),
	}
	for k, v := range ftArm.res.Metrics() {
		m["ft_"+k] = v
	}
	return &Experiment{
		ID:      "chaos-worker",
		Title:   "Worker crash under the master/worker farm: re-dispatch vs hang",
		Table:   tbl,
		Metrics: m,
		Notes: []string{
			"The fault-tolerant master re-grants chunks unreported within 1s (virtual).",
			fmt.Sprintf("Plain master hang, convicted by the engine: %d process(es) blocked forever.",
				len(plainArm.deadlock.Blocked)),
		},
	}, nil
}
