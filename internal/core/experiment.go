package core

import (
	"fmt"

	"microgrid/internal/metrics"
	"microgrid/internal/scenario"
	"microgrid/internal/trace"
)

// Experiment is the outcome of reproducing one paper table or figure.
type Experiment struct {
	// ID is the figure identifier ("fig05", "fig10", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Table holds the regenerated rows (render with String or CSV).
	Table *metrics.Table
	// Metrics exposes key scalar results for tests and EXPERIMENTS.md.
	Metrics map[string]float64
	// Notes records caveats (class substitutions etc.).
	Notes []string
	// TraceRuns holds each traced build's run (see ExperimentRun.Traces);
	// empty unless the invocation set Trace.
	TraceRuns []trace.Run
}

// ExperimentFunc runs one experiment under the given invocation.
type ExperimentFunc func(x *ExperimentRun) (*Experiment, error)

// ExperimentRun is one invocation of an experiment: its problem scale
// and the caller's engine and trace choices. The experiment builds every
// arm through Build or Run, which apply the choices to a copy of the
// arm's scenario, so a run is configured only by the value it is given.
type ExperimentRun struct {
	// Quick selects reduced problem sizes for fast runs (tests, smoke
	// checks); the full size matches the paper where tractable.
	Quick bool
	// Shards, when ≥ 1, outranks each arm's engine line.
	Shards int
	// Partition, when non-nil, outranks each arm's partition line.
	Partition *scenario.PartitionSpec
	// Trace, when non-nil, outranks each arm's trace line.
	Trace *scenario.TraceSpec

	// traced holds each traced build's recorders, in build order; only
	// the recorders, so a multi-arm experiment does not keep every
	// arm's grid alive until it returns.
	traced [][]*trace.Recorder
}

// Build constructs an arm's MicroGrid (see BuildScenario) from a copy of
// s carrying the invocation's engine and trace choices.
func (x *ExperimentRun) Build(s *scenario.Scenario) (*MicroGrid, error) {
	return x.BuildEnv(s, ScenarioEnv{})
}

// BuildEnv is Build with explicit reference resolution.
func (x *ExperimentRun) BuildEnv(s *scenario.Scenario, env ScenarioEnv) (*MicroGrid, error) {
	sc := *s
	if x.Shards > 0 {
		sc.EngineShards = x.Shards
	}
	if x.Partition != nil {
		sc.Partition = x.Partition
	}
	if x.Trace != nil {
		sc.Trace = x.Trace
	}
	m, err := BuildScenarioEnv(&sc, env)
	if err == nil && m.recs != nil {
		x.traced = append(x.traced, m.recs)
	}
	return m, err
}

// Run builds an arm's MicroGrid and runs its workload.
func (x *ExperimentRun) Run(s *scenario.Scenario) (*Report, error) {
	m, err := x.Build(s)
	if err != nil {
		return nil, err
	}
	return m.RunWorkload(s)
}

// Traces returns each traced build's canonical run, labeled "NN:config"
// by build order so the export reads in the order the arms ran.
func (x *ExperimentRun) Traces() []trace.Run {
	runs := make([]trace.Run, len(x.traced))
	for i, recs := range x.traced {
		runs[i] = mergeRecorders(recs)
		runs[i].Label = fmt.Sprintf("%02d:%s", i, runs[i].Label)
	}
	return runs
}

// ExperimentInfo is one registry entry: the figure id, its one-line
// description (sourced from the representative scenario's metadata, so
// `mgrid -list` and the scenario files can never drift apart) and the
// analysis function that runs the arms.
type ExperimentInfo struct {
	// ID is the figure identifier ("fig05", "fig10", "chaos-crash", ...).
	ID string
	// Desc is the scenario's Description, for listings.
	Desc string
	// Fn runs the experiment.
	Fn ExperimentFunc
}

// Registry of all experiments, in paper order.
func Experiments() []ExperimentInfo {
	mk := func(id string, sc func() *scenario.Scenario, fn ExperimentFunc) ExperimentInfo {
		return ExperimentInfo{ID: id, Desc: sc().Description, Fn: fn}
	}
	return []ExperimentInfo{
		mk("fig05", Fig05Scenario, Fig05Memory),
		mk("fig06", Fig06Scenario, Fig06CPUFraction),
		mk("fig07", Fig07Scenario, Fig07QuantaDistribution),
		mk("fig08", Fig08Scenario, Fig08NetworkModel),
		mk("fig09", Fig09Scenario, Fig09Configurations),
		mk("fig10", Fig10Scenario, Fig10NPBClassA),
		mk("fig11", Fig11Scenario, Fig11QuantumSweep),
		mk("fig12", Fig12Scenario, Fig12CPUScaling),
		mk("fig14", Fig14Scenario, Fig14VBNSDegrade),
		mk("fig15", Fig15Scenario, Fig15EmulationRates),
		mk("fig16", Fig16Scenario, Fig16Cactus),
		mk("fig17", Fig17Scenario, Fig17Autopilot),
		mk("chaos-crash", ChaosCrashScenario, ChaosCrash),
		mk("chaos-flap", ChaosFlapScenario, ChaosFlap),
		mk("chaos-worker", ChaosWorkerScenario, ChaosWorker),
	}
}

// GetExperiment finds an experiment by ID.
func GetExperiment(id string) (ExperimentFunc, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Fn, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}
