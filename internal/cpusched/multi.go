package cpusched

import (
	"fmt"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// MultiController is the paper's local MicroGrid CPU scheduler daemon
// (Fig. 4), one per physical host: it allocates the local CPU to *all*
// locally mapped virtual-host jobs with "a round-robin algorithm, and a
// quantum of 10 milliseconds" (paper §2.4.1). Each job carries its own
// CPU fraction ("this CPU fraction is then divided across each process on
// a virtual host"); the daemon grants one quantum at a time to the next
// job whose accumulated time lags cpu_Fraction × elapsed, so co-located
// virtual hosts receive interleaved — never overlapping — windows. As in
// the paper, a job is charged the wall-clock length of each enabled
// window (myUsedTime += stopTime - startTime), which is what makes
// enforcement degrade under CPU competition (Fig. 6).
type MultiController struct {
	Host *Host
	// Quantum is the enforcement window (Host.Quantum if zero).
	Quantum simcore.Duration
	// StartDelay postpones the daemon's first window (phase staggering).
	StartDelay simcore.Duration
	// DispatchJitter randomizes control-action cost by ±fraction (cache
	// and interrupt-timing noise; with preemption latency it produces
	// Fig. 7's quanta-size deviations).
	DispatchJitter float64
	// ChargeActualCPU, when true, charges each job its measured CPU time
	// instead of wall time — an ablation of the paper's algorithm.
	ChargeActualCPU bool

	jobs       []*ControlledJob
	daemonTask *Task
	stopped    bool
	startTime  simcore.Time
	rrIndex    int
}

// ControlledJob is one job under a MultiController.
type ControlledJob struct {
	Task     *Task
	Fraction float64
	used     simcore.Duration
	// start anchors the job's target accounting, so jobs added mid-run
	// (migration) don't receive a catch-up burst.
	start   simcore.Time
	removed bool
	// OnQuantum observes each granted window.
	OnQuantum func(start simcore.Time, length simcore.Duration)
}

// UsedTime returns the time charged to the job.
func (j *ControlledJob) UsedTime() simcore.Duration { return j.used }

// NewMultiController creates the daemon for a host.
func NewMultiController(host *Host) *MultiController {
	return &MultiController{
		Host:       host,
		Quantum:    host.Quantum,
		daemonTask: host.NewTask("mgrid-sched:" + host.Name),
	}
}

// AddJob registers a job at the given CPU fraction; the job starts
// suspended and only runs during granted windows. The sum of fractions
// must stay ≤ 1.
func (mc *MultiController) AddJob(task *Task, fraction float64) (*ControlledJob, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("cpusched: job fraction %.3f out of (0, 1]", fraction)
	}
	total := fraction
	for _, j := range mc.jobs {
		if !j.removed {
			total += j.Fraction
		}
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("cpusched: host %s oversubscribed: fractions sum to %.3f", mc.Host.Name, total)
	}
	task.Stop()
	j := &ControlledJob{Task: task, Fraction: fraction, start: mc.Host.eng.Now()}
	mc.jobs = append(mc.jobs, j)
	return j, nil
}

// RemoveJob detaches a job (for virtual-host migration); the job's task
// is left suspended.
func (mc *MultiController) RemoveJob(j *ControlledJob) {
	j.removed = true
}

// Terminate stops the daemon loop.
func (mc *MultiController) Terminate() { mc.stopped = true }

// daemonOverheadOps is the CPU cost of one control action (signal + context
// switch bookkeeping): ~25k ops ≈ 47 µs at 533 MIPS.
const daemonOverheadOps = 25000

// dispatchOps returns one control action's cost, with optional jitter.
func (mc *MultiController) dispatchOps() float64 {
	if mc.DispatchJitter <= 0 {
		return daemonOverheadOps
	}
	jf := 1 + mc.DispatchJitter*(2*mc.Host.hostRand().Float64()-1)
	return daemonOverheadOps * jf
}

// Run executes the daemon loop: round-robin over lagging jobs, one
// quantum each, wall-time charging as in the paper's Fig. 4 (measured
// CPU time under ChargeActualCPU).
func (mc *MultiController) Run(p *simcore.Proc) {
	if mc.StartDelay > 0 {
		p.Sleep(mc.StartDelay)
	}
	mc.startTime = p.Now()
	// A delayed start is a phase shift, not a deficit: re-anchor jobs
	// registered before the daemon came up.
	for _, j := range mc.jobs {
		if j.start < mc.startTime {
			j.start = mc.startTime
		}
	}
	for !mc.stopped {
		job := mc.nextLagging(p.Now())
		if job == nil {
			p.Sleep(mc.Quantum)
			continue
		}
		mc.daemonTask.Compute(p, mc.dispatchOps())
		start := p.Now()
		var cpu0 simcore.Duration
		if mc.ChargeActualCPU {
			cpu0 = job.Task.UsedCPU()
		}
		job.Task.Cont()
		p.Sleep(mc.Quantum)
		mc.daemonTask.Compute(p, mc.dispatchOps())
		job.Task.Stop()
		stop := p.Now()
		if mc.ChargeActualCPU {
			job.used += job.Task.UsedCPU() - cpu0
		} else {
			job.used += stop.Sub(start)
		}
		if job.OnQuantum != nil {
			job.OnQuantum(start, stop.Sub(start))
		}
		if rec := mc.Host.eng.Recorder(); rec.Enabled(trace.CatCPU) {
			rec.Span(trace.CatCPU, "quantum", int64(start), int64(stop.Sub(start)),
				trace.Attr{Host: mc.Host.Name, Detail: job.Task.Name})
		}
	}
}

// nextLagging returns the next job (round robin) whose charged time lags
// its fraction of its elapsed wall time.
func (mc *MultiController) nextLagging(now simcore.Time) *ControlledJob {
	n := len(mc.jobs)
	for k := 0; k < n; k++ {
		j := mc.jobs[(mc.rrIndex+k)%n]
		if j.removed {
			continue
		}
		elapsed := now.Sub(j.start)
		if j.used <= simcore.Duration(j.Fraction*float64(elapsed)) {
			mc.rrIndex = (mc.rrIndex + k + 1) % n
			return j
		}
	}
	return nil
}

// Spawn starts the daemon as a background process.
func (mc *MultiController) Spawn() *simcore.Proc {
	pr := mc.Host.eng.Spawn("mgrid-sched:"+mc.Host.Name, mc.Run)
	pr.SetDaemon(true)
	return pr
}
