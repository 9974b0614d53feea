// Package runner executes campaigns of MicroGrid experiments on a
// bounded worker pool. Each experiment builds its own simcore.Engine, so
// a campaign parallelizes without sharing simulation state: a `-j 8` run
// produces byte-identical tables and metrics to a `-j 1` run. The runner
// adds the operational layer the paper's batch campaigns (§5) need —
// per-experiment wall-clock timeouts, one retry on failure, captured wall
// times, and machine-readable artifacts — while keeping results in
// registry (paper) order regardless of completion order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"microgrid/internal/core"
)

// Status classifies how a task finished.
type Status string

const (
	// StatusOK means the task produced an experiment.
	StatusOK Status = "ok"
	// StatusFailed means every attempt returned an error.
	StatusFailed Status = "failed"
	// StatusTimeout means the per-task deadline expired.
	StatusTimeout Status = "timeout"
	// StatusCanceled means the campaign (or the task's own submitter,
	// in mgridd's case) cancelled the context before or while the task
	// ran. Distinct from StatusFailed so a user-cancelled run is never
	// mistaken for a crash.
	StatusCanceled Status = "canceled"
)

// DefaultRetries is how many times a failed attempt is re-run when
// Options.Retries is left zero: once, matching the transient-failure
// policy of batch grid schedulers.
const DefaultRetries = 1

// Task is one unit of campaign work.
type Task struct {
	// ID names the task in results and artifacts ("fig05", ...).
	ID string
	// Run produces the experiment. It should honor ctx where it can;
	// the runner also enforces the deadline externally, abandoning an
	// attempt that overruns it (the attempt's goroutine is detached and
	// its eventual result discarded).
	Run func(ctx context.Context) (*core.Experiment, error)
}

// FailureKind refines a Result beyond Status: how (if at all) the task
// misbehaved. Campaign artifacts record it per experiment so fault
// campaigns can tell a flaky pass from a clean one.
type FailureKind string

const (
	// FailureNone: the task passed on its first attempt.
	FailureNone FailureKind = ""
	// FailureRetryThenPass: at least one attempt errored before a later
	// attempt succeeded.
	FailureRetryThenPass FailureKind = "retry-then-pass"
	// FailureError: every attempt returned an error.
	FailureError FailureKind = "error"
	// FailureTimeout: the per-task wall-clock deadline expired.
	FailureTimeout FailureKind = "timeout"
	// FailureCanceled: the context was cancelled — by the campaign or by
	// an explicit per-run cancel — before the task could finish.
	FailureCanceled FailureKind = "canceled"
)

// Result is the outcome of one task.
type Result struct {
	// ID echoes the task ID.
	ID string
	// Experiment is the task's product; nil unless Status is StatusOK.
	Experiment *core.Experiment
	// Err is the last attempt's error; nil on success.
	Err error
	// Status classifies the outcome.
	Status Status
	// Failure records how the task misbehaved, if it did.
	Failure FailureKind
	// Attempts counts runs of the task (1 normally, 2 after a retry).
	Attempts int
	// Wall is the task's total wall-clock time across attempts.
	Wall time.Duration
}

// Options tune Run.
type Options struct {
	// Workers bounds concurrently running tasks; values below 1 mean
	// sequential execution (identical to running the tasks in a loop).
	Workers int
	// Timeout bounds each attempt's wall clock; 0 means no limit.
	Timeout time.Duration
	// Retries is how many extra attempts a failed task gets. Zero
	// selects DefaultRetries; negative disables retry entirely.
	// Timeouts and context cancellation are never retried.
	Retries int
	// OnResult, when non-nil, is called from worker goroutines as each
	// task finishes, in completion order (not task order). It must be
	// safe for concurrent use when Workers > 1.
	OnResult func(Result)
}

// Run executes tasks on a pool of opts.Workers goroutines and returns
// one Result per task, in task order. It always runs every task (a
// failure does not abort the campaign); cancelling ctx marks the
// not-yet-started remainder failed with ctx's error.
func Run(ctx context.Context, tasks []Task, opts Options) []Result {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	}
	if retries < 0 {
		retries = 0
	}

	results := make([]Result, len(tasks))
	if len(tasks) == 0 {
		return results
	}
	idx := make(chan int, len(tasks))
	for i := range tasks {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := runTask(ctx, tasks[i], opts.Timeout, retries)
				results[i] = r
				if opts.OnResult != nil {
					opts.OnResult(r)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// RunOne executes a single task to completion under opts (Workers is
// ignored) and returns its Result. It is the per-submission entry point
// the mgridd service uses: each accepted run is one task, executed
// asynchronously under its own cancellable context, with the same
// timeout/retry/panic containment the campaign path gets.
func RunOne(ctx context.Context, t Task, opts Options) Result {
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	}
	if retries < 0 {
		retries = 0
	}
	return runTask(ctx, t, opts.Timeout, retries)
}

// runTask runs one task to a final Result: up to 1+retries attempts,
// stopping early on success, timeout, or campaign cancellation.
func runTask(ctx context.Context, t Task, timeout time.Duration, retries int) Result {
	res := Result{ID: t.ID, Status: StatusFailed, Failure: FailureError}
	start := time.Now()
	for attempt := 0; attempt <= retries; attempt++ {
		res.Attempts = attempt + 1
		exp, err := runAttempt(ctx, t, timeout)
		if err == nil {
			res.Experiment = exp
			res.Err = nil
			res.Status = StatusOK
			res.Failure = FailureNone
			if attempt > 0 {
				res.Failure = FailureRetryThenPass
			}
			break
		}
		res.Err = fmt.Errorf("%s: %w", t.ID, err)
		if errors.Is(err, context.DeadlineExceeded) {
			res.Status = StatusTimeout
			res.Failure = FailureTimeout
			break // a deadline expiry repeats; don't burn another timeout
		}
		if errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled) {
			// Cancellation is a verdict on the submitter, not the task:
			// report it as its own kind so campaign.json (and mgridd) can
			// tell a user-cancelled run from a crash.
			res.Status = StatusCanceled
			res.Failure = FailureCanceled
			break
		}
		if ctx.Err() != nil {
			break // campaign deadline hit; retrying is pointless
		}
	}
	res.Wall = time.Since(start)
	return res
}

// runAttempt executes one attempt under the per-attempt deadline. The
// attempt runs on its own goroutine so that experiment functions that
// cannot observe ctx (they drive a simulation engine to completion) are
// still bounded: on expiry the goroutine is abandoned and its eventual
// result discarded via the buffered channel.
func runAttempt(ctx context.Context, t Task, timeout time.Duration) (*core.Experiment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	type outcome struct {
		exp *core.Experiment
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("runner: task panicked: %v", r)}
			}
		}()
		exp, err := t.Run(actx)
		ch <- outcome{exp, err}
	}()
	select {
	case o := <-ch:
		return o.exp, o.err
	case <-actx.Done():
		return nil, actx.Err()
	}
}

// Campaign returns one Task per registered experiment, in paper order.
// Each attempt runs on its own copy of x (scale, engine and trace
// choices), and its Experiment carries the traces of its builds.
func Campaign(x core.ExperimentRun) []Task {
	regs := core.Experiments()
	tasks := make([]Task, 0, len(regs))
	for _, e := range regs {
		fn := e.Fn
		tasks = append(tasks, Task{
			ID: e.ID,
			Run: func(ctx context.Context) (*core.Experiment, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// A fresh value, so attempts share no traces with x or
				// with each other.
				run := core.ExperimentRun{Quick: x.Quick, Shards: x.Shards, Partition: x.Partition, Trace: x.Trace}
				exp, err := fn(&run)
				if exp != nil {
					exp.TraceRuns = run.Traces()
				}
				return exp, err
			},
		})
	}
	return tasks
}
