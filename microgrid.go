// Package microgrid is the public API of the MicroGrid reproduction: a
// set of simulation tools that let Grid applications run on arbitrary
// *virtual* Grid resources, after "The MicroGrid: a Scientific Tool for
// Modeling Computational Grids" (Song, Liu, Jakobsen, Bhagwan, Zhang,
// Taura, Chien — SC2000).
//
// The package re-exports the assembled system from internal/core plus the
// building blocks an application author needs: build a MicroGrid for a
// target machine configuration (optionally emulated on different physical
// hardware at a chosen simulation rate), then run an MPI-style application
// through the virtualized Globus stack and read back virtual-time results.
//
//	m, err := microgrid.Build(microgrid.BuildConfig{
//		Target: microgrid.AlphaCluster,
//	})
//	report, err := m.RunApp("hello", func(ctx *microgrid.AppContext) error {
//		ctx.Proc.ComputeVirtualSeconds(1)
//		return ctx.Comm.Barrier()
//	}, microgrid.RunOptions{})
//
// Every table and figure of the paper's evaluation is available as an
// experiment; see Experiments and the cmd/mgrid tool.
package microgrid

import (
	"context"

	"microgrid/internal/chaos"
	"microgrid/internal/core"
	"microgrid/internal/globus"
	"microgrid/internal/npb"
	"microgrid/internal/runner"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Core system types.
type (
	// MicroGrid is an assembled virtual grid plus its GIS and Globus stack.
	MicroGrid = core.MicroGrid
	// BuildConfig configures Build.
	BuildConfig = core.BuildConfig
	// AppContext is what application functions receive on each rank.
	AppContext = core.AppContext
	// RunOptions tunes RunApp.
	RunOptions = core.RunOptions
	// Report is the outcome of a run.
	Report = core.Report
	// Experiment is a reproduced paper table/figure.
	Experiment = core.Experiment
	// ExperimentFunc runs one experiment.
	ExperimentFunc = core.ExperimentFunc
	// ExperimentRun is one experiment invocation: its scale and the
	// caller's engine and trace choices, applied to every arm it builds.
	ExperimentRun = core.ExperimentRun
	// Time and Duration are simulated-time types.
	Time = simcore.Time
	// Duration is a span of simulated time.
	Duration = simcore.Duration
	// NPBClass selects a NAS Parallel Benchmark problem size.
	NPBClass = npb.Class
)

// Build assembles a MicroGrid.
func Build(cfg BuildConfig) (*MicroGrid, error) { return core.Build(cfg) }

// The paper's Fig. 9 machine configurations.
var (
	// AlphaCluster is 4× 533 MHz DEC 21164 on 100 Mb Ethernet.
	AlphaCluster = core.AlphaCluster
	// HPVM is 4× 300 MHz Pentium II on 1.2 Gb Myrinet.
	HPVM = core.HPVM
)

// NPB problem classes.
const (
	NPBClassS = npb.ClassS
	NPBClassW = npb.ClassW
	NPBClassA = npb.ClassA
	NPBClassB = npb.ClassB
)

// NPBNames lists the implemented NAS Parallel Benchmarks in figure order.
func NPBNames() []string { return npb.Names() }

// ExperimentInfo is one experiment-registry entry: id, one-line
// description (from its scenario's metadata) and runner.
type ExperimentInfo = core.ExperimentInfo

// Experiments returns every paper experiment in figure order.
func Experiments() []ExperimentInfo { return core.Experiments() }

// GetExperiment finds an experiment by figure id ("fig05" ... "fig17").
func GetExperiment(id string) (ExperimentFunc, error) { return core.GetExperiment(id) }

// The declarative scenario layer (internal/scenario): one text file — or
// one Scenario value — describes a whole run: the virtual grid (machine
// spec or GIS reference), topology, emulation policy, workload, retry
// policy, tracing and an optional chaos schedule. Every figure
// experiment is built through this path, and `mgrid -scenario file`
// runs user-authored scenarios end to end.
type (
	// Scenario is the parsed declarative description of a run.
	Scenario = scenario.Scenario
	// ScenarioMachine is a machine spec inside a scenario.
	ScenarioMachine = scenario.Machine
	// ScenarioWorkload selects and parameterizes the application.
	ScenarioWorkload = scenario.Workload
	// ScenarioGIS references a GIS-defined virtual grid.
	ScenarioGIS = scenario.GISRef
	// ScenarioEnv resolves a scenario's external references.
	ScenarioEnv = core.ScenarioEnv
	// ScenarioPartition places topology clusters on PDES shards
	// (`partition auto` / `partition map node=shard ...`).
	ScenarioPartition = scenario.PartitionSpec
	// ScenarioTrace selects trace categories (0 = all) and ring-buffer
	// capacity (`trace categories=... buf=...`).
	ScenarioTrace = scenario.TraceSpec
)

// ParseScenario parses the scenario text format.
func ParseScenario(text string) (*Scenario, error) { return scenario.ParseString(text) }

// LoadScenario parses a scenario file; errors name the file and line.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// BuildScenario constructs the MicroGrid a scenario describes and arms
// its chaos schedule.
func BuildScenario(s *Scenario) (*MicroGrid, error) { return core.BuildScenario(s) }

// BuildScenarioEnv is BuildScenario with explicit reference resolution
// (in-memory GIS, base directory for relative paths).
func BuildScenarioEnv(s *Scenario, env ScenarioEnv) (*MicroGrid, error) {
	return core.BuildScenarioEnv(s, env)
}

// RunScenario builds the scenario's grid and runs its workload.
func RunScenario(s *Scenario) (*Report, error) { return core.RunScenario(s) }

// RunScenarioEnv is RunScenario with explicit reference resolution
// (in-memory GIS, base directory for relative paths).
func RunScenarioEnv(s *Scenario, env ScenarioEnv) (*Report, error) {
	return core.RunScenarioEnv(s, env)
}

// FormatScenarioReport renders a scenario run's deterministic text
// report — the exact bytes `mgrid -scenario` prints and mgridd stores as
// a run's stdout artifact.
func FormatScenarioReport(scenarioName string, r *Report) string {
	return core.FormatScenarioReport(scenarioName, r)
}

// Campaign runner types. The runner executes many experiments on a
// bounded worker pool — each in its own isolated engine — with
// per-experiment timeouts, one retry on failure, and machine-readable
// artifacts. Results are deterministic: any worker count produces the
// same tables and metrics.
type (
	// CampaignTask is one unit of campaign work.
	CampaignTask = runner.Task
	// CampaignResult is the outcome of one task.
	CampaignResult = runner.Result
	// CampaignOptions tune RunCampaign.
	CampaignOptions = runner.Options
	// CampaignStatus classifies a result.
	CampaignStatus = runner.Status
)

// Campaign result statuses.
const (
	CampaignOK       = runner.StatusOK
	CampaignFailed   = runner.StatusFailed
	CampaignTimeout  = runner.StatusTimeout
	CampaignCanceled = runner.StatusCanceled
)

// Campaign returns one task per registered experiment, in paper order,
// each attempt run on its own copy of x.
func Campaign(x ExperimentRun) []CampaignTask { return runner.Campaign(x) }

// Fault injection (the chaos subsystem). A ChaosSchedule — built
// programmatically or parsed from text — is armed against a MicroGrid
// with MicroGrid.ArmChaos before RunApp; all jitter comes from the
// engine's seeded RNG, so one seed plus one schedule reproduces the same
// faults at any worker count.
type (
	// ChaosSchedule is a named, ordered fault plan.
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
	// ChaosInjector arms schedules against a simulation.
	ChaosInjector = chaos.Injector
	// SubmitRetryPolicy configures recovery for RunOptions.SubmitPolicy:
	// per-attempt status timeout, bounded retries with jittered
	// exponential backoff, and failover to alternate GIS-discovered hosts.
	SubmitRetryPolicy = globus.SubmitRetryPolicy
)

// ParseChaosSchedule parses the chaos schedule text format.
func ParseChaosSchedule(text string) (*ChaosSchedule, error) {
	return chaos.ParseScheduleString(text)
}

// LoadChaosSchedule parses a chaos schedule file.
func LoadChaosSchedule(path string) (*ChaosSchedule, error) {
	return chaos.LoadSchedule(path)
}

// RunCampaign executes tasks on opts.Workers goroutines, returning one
// result per task in task order. Failures never abort the campaign.
func RunCampaign(ctx context.Context, tasks []CampaignTask, opts CampaignOptions) []CampaignResult {
	return runner.Run(ctx, tasks, opts)
}

// WriteCampaignArtifacts writes campaign.json (deterministic results)
// and timings.csv (operational record) into dir.
func WriteCampaignArtifacts(dir string, results []CampaignResult, quick bool) error {
	return runner.WriteArtifacts(dir, results, quick)
}

// Structured tracing (internal/trace): deterministic, virtual-time typed
// events over every layer of the stack. Arm it per instance via a
// scenario's trace line or BuildConfig.Trace and read the run back with
// MicroGrid.Trace, or per experiment via ExperimentRun.Trace, whose
// Experiment.TraceRuns holds every traced build's run.
type (
	// TraceCategory is the per-subsystem trace category bitmask.
	TraceCategory = trace.Category
	// TraceEvent is one trace record (virtual-time instant or span).
	TraceEvent = trace.Event
	// TraceRun is one recorder's exported snapshot.
	TraceRun = trace.Run
)

// TraceAll enables every trace category.
const TraceAll = trace.CatAll

// ParseTraceCategories parses a category list like "net,mpi" or
// "all,-engine".
func ParseTraceCategories(s string) (TraceCategory, error) { return trace.ParseCategories(s) }

// ParsePartitionFlag parses a -partition CLI value: "auto", or a
// comma-separated "node=shard,..." pin list ("" = nil).
func ParsePartitionFlag(v string) (*ScenarioPartition, error) { return scenario.ParsePartitionFlag(v) }

// PartitionPreview resolves a scenario's partition offline: the
// node→shard placement, the synchronization lookahead, and the shard
// count the build would use (nil map = partitioning would be a no-op).
func PartitionPreview(s *Scenario) (map[string]int, Duration, int, error) {
	return core.PartitionPreview(s)
}
