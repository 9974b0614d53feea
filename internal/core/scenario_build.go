package core

import (
	"fmt"
	"os"
	"path/filepath"

	"microgrid/internal/cactus"
	"microgrid/internal/gis"
	"microgrid/internal/globus"
	"microgrid/internal/netsim"
	"microgrid/internal/npb"
	"microgrid/internal/scenario"
	"microgrid/internal/workqueue"
)

// This file bridges the declarative layer to the simulator: a
// scenario.Scenario — parsed from a file or defined in code — becomes a
// built MicroGrid (with its chaos schedule armed) and, when it names a
// workload, a completed run. Every figure experiment and every user
// scenario file goes through this one construction path.

// ScenarioEnv supplies what a scenario's external references resolve
// against.
type ScenarioEnv struct {
	// GIS, when non-nil, satisfies the scenario's gis reference from an
	// in-memory server instead of reading the LDIF file.
	GIS *gis.Server
	// BaseDir anchors relative file references (a scenario loaded from
	// disk resolves against its own directory).
	BaseDir string
}

// buildConfig lowers a scenario to the imperative build description,
// sharing the scenario's machine, partition and trace specs (nothing
// mutates them). A GIS scenario has no target: its records supply the
// hosts.
func buildConfig(s *scenario.Scenario) BuildConfig {
	cfg := BuildConfig{
		Seed:            s.Seed,
		Emulation:       s.Emulation,
		Rate:            s.Rate,
		Quantum:         s.Quantum,
		Topo:            s.Topology,
		TopoGen:         s.TopoGen,
		HostRanks:       s.HostRanks,
		SendOverheadOps: s.SendOverheadOps,
		PerByteOps:      s.PerByteOps,
		StaggerSpread:   s.Stagger,
		FlowNetwork:     s.FlowNetwork,
		Shards:          s.EngineShards,
		Partition:       s.Partition,
		Trace:           s.Trace,
	}
	if s.Target != nil {
		cfg.Target = *s.Target
	}
	return cfg
}

// BuildScenario constructs the MicroGrid a scenario describes and arms
// its chaos schedule (if any). The engine operation order is exactly
// Build then ArmChaos, matching the experiments' historical path, so
// results are bit-identical to hand-constructed runs.
func BuildScenario(s *scenario.Scenario) (*MicroGrid, error) {
	return BuildScenarioEnv(s, ScenarioEnv{})
}

// BuildScenarioEnv is BuildScenario with explicit reference resolution.
func BuildScenarioEnv(s *scenario.Scenario, env ScenarioEnv) (*MicroGrid, error) {
	var m *MicroGrid
	var err error
	switch {
	case s.GIS != nil:
		server := env.GIS
		if server == nil {
			path := s.GIS.File
			if env.BaseDir != "" && !filepath.IsAbs(path) {
				path = filepath.Join(env.BaseDir, path)
			}
			f, ferr := os.Open(path)
			if ferr != nil {
				return nil, fmt.Errorf("core: scenario %q: %w", s.Name, ferr)
			}
			server = gis.NewServer()
			lerr := gis.LoadLDIF(server, f)
			f.Close()
			if lerr != nil {
				return nil, fmt.Errorf("core: scenario %q: %s: %w", s.Name, path, lerr)
			}
		}
		m, err = buildFromGIS(server, s.GIS.Config, s.GIS.PhysMIPS, buildConfig(s))
	case s.Target != nil:
		m, err = Build(buildConfig(s))
	default:
		return nil, fmt.Errorf("core: scenario %q defines no virtual grid (target or gis)", s.Name)
	}
	if err != nil {
		return nil, err
	}
	if s.Chaos != nil {
		if _, err := m.ArmChaos(s.Chaos); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ScenarioRunOptions lowers the scenario's workload submission knobs
// and retry policy to RunApp options.
func ScenarioRunOptions(s *scenario.Scenario) RunOptions {
	var opts RunOptions
	if w := s.Workload; w != nil {
		opts.SamplePeriod = w.SamplePeriod
		opts.BasePort = netsim.Port(w.BasePort)
		opts.Credential = w.Credential
		opts.RanksPerHost = w.RanksPerHost
		opts.Ranks = w.Ranks
		opts.MaxWallTime = w.MaxWallTime
	}
	if r := s.Retry; r != nil {
		opts.SubmitPolicy = &globus.SubmitRetryPolicy{
			StatusTimeout: r.StatusTimeout,
			MaxAttempts:   r.MaxAttempts,
			Backoff:       r.Backoff,
			BackoffJitter: r.BackoffJitter,
			PortStride:    r.PortStride,
		}
	}
	return opts
}

// RunScenario builds the scenario's grid and runs its workload.
func RunScenario(s *scenario.Scenario) (*Report, error) {
	return RunScenarioEnv(s, ScenarioEnv{})
}

// RunScenarioEnv is RunScenario with explicit reference resolution.
func RunScenarioEnv(s *scenario.Scenario, env ScenarioEnv) (*Report, error) {
	m, err := BuildScenarioEnv(s, env)
	if err != nil {
		return nil, err
	}
	return m.RunWorkload(s)
}

// RunWorkload dispatches the scenario's workload on an already-built
// grid. The application names match the experiments' historical naming
// ("BT.S.4", "wavetoy-50"), keeping reports and traces byte-compatible.
func (m *MicroGrid) RunWorkload(s *scenario.Scenario) (*Report, error) {
	w := s.Workload
	if w == nil {
		return nil, fmt.Errorf("core: scenario %q names no workload", s.Name)
	}
	opts := ScenarioRunOptions(s)
	switch w.Kind {
	case "npb":
		fn, err := npb.Get(w.Bench)
		if err != nil {
			return nil, err
		}
		return m.RunApp(fmt.Sprintf("%s.%c.%d", w.Bench, w.Class, m.cfg.Target.Procs),
			func(ctx *AppContext) error {
				return fn(ctx.Comm, npb.Params{Class: npb.Class(w.Class)})
			}, opts)
	case "cactus":
		return m.RunApp(fmt.Sprintf("wavetoy-%d", w.Edge), func(ctx *AppContext) error {
			return cactus.RunWaveToy(ctx.Comm, cactus.Params{GridEdge: w.Edge, Steps: w.Steps})
		}, opts)
	case "workqueue":
		cfg := workqueue.Config{
			Units:         w.Units,
			OpsPerUnit:    w.OpsPerUnit,
			MinChunk:      w.MinChunk,
			ResultBytes:   w.ResultBytes,
			FaultTolerant: w.FaultTolerant,
			LostTimeout:   w.LostTimeout,
		}
		if w.Policy == "self" {
			cfg.Policy = workqueue.SelfScheduling
		}
		return m.RunApp("farm", func(ctx *AppContext) error {
			_, err := workqueue.Run(ctx.Comm, cfg)
			return err
		}, opts)
	case "pingpong":
		size := w.MsgBytes
		return m.RunApp("pp", func(ctx *AppContext) error {
			c := ctx.Comm
			if c.Rank() > 1 {
				return nil // extra hosts idle; the first two play ping-pong
			}
			peer := 1 - c.Rank()
			const iters = 10
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, 1, size, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(peer, 1); err != nil {
						return err
					}
				} else {
					if _, _, err := c.Recv(peer, 1); err != nil {
						return err
					}
					if err := c.Send(peer, 1, size, nil); err != nil {
						return err
					}
				}
			}
			return nil
		}, opts)
	}
	return nil, fmt.Errorf("core: scenario %q: unknown workload kind %q", s.Name, w.Kind)
}
