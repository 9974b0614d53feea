package service

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"microgrid/internal/core"
	"microgrid/internal/metrics"
	"microgrid/internal/runner"
	"microgrid/internal/scenario"
	"microgrid/internal/trace"
)

// RunState is a run's lifecycle position.
type RunState string

const (
	// StateQueued: accepted, waiting for a worker (or, for a coalesced
	// follower, for its leader's in-flight execution).
	StateQueued RunState = "queued"
	// StateRunning: simulating on a worker.
	StateRunning RunState = "running"
	// StateDone: finished successfully; artifacts are available.
	StateDone RunState = "done"
	// StateFailed: finished with an error or timeout.
	StateFailed RunState = "failed"
	// StateCanceled: cancelled by the client before completion.
	StateCanceled RunState = "canceled"
)

// terminal reports whether a state is final.
func terminal(st RunState) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// run is the server-side record of one submission. All mutable fields
// are guarded by the owning Server's mu.
type run struct {
	id     string
	client string
	key    string // content-address of the results
	scen   *scenario.Scenario
	quick  bool

	state     RunState
	cached    bool   // served from cache or from a coalesced leader
	coalesced bool   // rode an in-flight identical submission
	leader    *run   // the in-flight run this one coalesced onto
	followers []*run // identical submissions riding this execution

	status         runner.Status
	failure        runner.FailureKind
	errMsg         string
	wallSeconds    float64
	virtualSeconds float64
	startSeq       int // execution admission order (1-based; 0 = never started)

	arts *Artifacts

	ctx    context.Context
	cancel context.CancelFunc
	subs   []chan struct{} // closed on every state transition
}

// subscribeLocked registers a channel closed at the run's next state
// transition. Caller holds Server.mu.
func (r *run) subscribeLocked() chan struct{} {
	ch := make(chan struct{})
	r.subs = append(r.subs, ch)
	return ch
}

// attemptHolder passes the report and trace snapshot out of a runner
// attempt. The attempt goroutine may outlive runner.RunOne (an abandoned
// timeout/cancel still drives its simulation to completion in the
// background), so the handoff is mutex-guarded: a late write is harmless
// because the server snapshots the holder exactly once, after RunOne
// returns.
type attemptHolder struct {
	mu  sync.Mutex
	rep *core.Report
	tr  *trace.Run
}

func (h *attemptHolder) set(rep *core.Report, tr *trace.Run) {
	h.mu.Lock()
	h.rep, h.tr = rep, tr
	h.mu.Unlock()
}

func (h *attemptHolder) get() (*core.Report, *trace.Run) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rep, h.tr
}

// runScenario executes the run's scenario under the runner's
// containment (timeout, panic recovery, cancellation) and returns the
// classified result plus — when the simulation completed — its report
// and trace snapshot.
func (s *Server) runScenario(r *run) (runner.Result, *core.Report, *trace.Run) {
	holder := &attemptHolder{}
	scen := r.scen
	env := core.ScenarioEnv{BaseDir: s.cfg.BaseDir}
	task := runner.Task{ID: scen.Name, Run: func(ctx context.Context) (*core.Experiment, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every service run is traced: clone the scenario and attach a
		// full-category recorder when the submitter didn't ask for one,
		// so the trace artifact always exists. Tracing never perturbs
		// the simulation, so cached and fresh results stay identical.
		sc := *scen
		if sc.Trace == nil {
			sc.Trace = &scenario.TraceSpec{Mask: trace.CatAll}
		}
		m, err := core.BuildScenarioEnv(&sc, env)
		if err != nil {
			return nil, err
		}
		rep, rerr := m.RunWorkload(&sc)
		tr, _ := m.Trace()
		holder.set(rep, &tr)
		if rerr != nil {
			return nil, rerr
		}
		return experimentFromReport(&sc, rep), nil
	}}
	// Retries are disabled: the simulation is deterministic, so a failed
	// run fails identically on retry — and the failure itself is a
	// result worth reporting promptly.
	res := runner.RunOne(r.ctx, task, runner.Options{Timeout: s.cfg.RunTimeout, Retries: -1})
	rep, tr := holder.get()
	return res, rep, tr
}

// experimentFromReport shapes a scenario run's report as a
// core.Experiment so the standard campaign.json artifact path applies
// to service runs unchanged.
func experimentFromReport(sc *scenario.Scenario, rep *core.Report) *core.Experiment {
	tbl := metrics.NewTable("scenario "+sc.Name, "metric", "value")
	tbl.AddRow("application", rep.Name)
	tbl.AddRow("virtual seconds", fmt.Sprintf("%.3f", rep.VirtualElapsed.Seconds()))
	tbl.AddRow("job seconds", fmt.Sprintf("%.3f", rep.JobVirtual.Seconds()))
	tbl.AddRow("attempts", rep.Attempts)
	tbl.AddRow("packets delivered", rep.Net.PacketsDelivered)
	tbl.AddRow("packets dropped", rep.Net.PacketsDropped)
	m := map[string]float64{
		"virtual_seconds":   rep.VirtualElapsed.Seconds(),
		"job_seconds":       rep.JobVirtual.Seconds(),
		"attempts":          float64(rep.Attempts),
		"packets_delivered": float64(rep.Net.PacketsDelivered),
		"packets_dropped":   float64(rep.Net.PacketsDropped),
	}
	hosts := make([]string, 0, len(rep.HostUtilization))
	for h := range rep.HostUtilization {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		tbl.AddRow("utilization "+h, fmt.Sprintf("%.3f", rep.HostUtilization[h]))
		m["util_"+h] = rep.HostUtilization[h]
	}
	title := sc.Description
	if title == "" {
		title = "scenario " + sc.Name
	}
	return &core.Experiment{ID: sc.Name, Title: title, Table: tbl, Metrics: m}
}

// buildArtifacts renders a completed (or failed) run's three artifacts.
func buildArtifacts(r *run, res runner.Result, rep *core.Report, tr *trace.Run) (*Artifacts, error) {
	cj, err := runner.CampaignJSON([]runner.Result{res}, r.quick)
	if err != nil {
		return nil, err
	}
	var stdout []byte
	switch {
	case res.Status == runner.StatusOK && rep != nil:
		stdout = []byte(core.FormatScenarioReport(r.scen.Name, rep))
	case res.Err != nil:
		stdout = []byte("error: " + res.Err.Error() + "\n")
	}
	var tb bytes.Buffer
	var runs []trace.Run
	if tr != nil {
		runs = []trace.Run{*tr}
	}
	if err := trace.WriteJSONL(&tb, runs); err != nil {
		return nil, err
	}
	return &Artifacts{CampaignJSON: cj, Stdout: stdout, TraceJSONL: tb.Bytes()}, nil
}
