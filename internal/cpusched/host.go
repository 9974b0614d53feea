// Package cpusched models physical compute hosts and the MicroGrid's local
// CPU scheduler (paper §2.4.1).
//
// A Host runs Tasks under a Linux-2.2-flavoured time-sharing scheduler:
// counter-based dynamic priorities with a recharge epoch, a configurable
// timeslice quantum (10 ms by default, "as supported by the Linux
// timesharing scheduler"), wakeup preemption, and a non-preemptible kernel
// priority class. On top of that, MultiController implements the paper's
// Figure-4 scheduler daemon, one per physical host: it starts and stops
// each job with signals so the job's consumed time tracks cpu_Fraction ×
// elapsed. The same daemon serves the Fig. 6–7 micro-benchmarks and every
// emulated grid.
//
// The scheduler model is what produces the paper's observed phenomena: the
// delivered-fraction knee under competition (Fig. 6), quanta-size jitter
// (Fig. 7), and the quantum-granularity modeling error for frequently
// synchronizing benchmarks (Fig. 11).
package cpusched

import (
	"fmt"
	"math/rand"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// DefaultQuantum is the Linux timesharing timeslice the paper used.
const DefaultQuantum = 10 * simcore.Millisecond

// Host is one physical machine's CPU, scheduling Tasks in simulated time.
type Host struct {
	eng  *simcore.Engine
	Name string
	// speedOps is CPU capacity in abstract operations per second
	// (MIPS × 1e6 in the configuration tables).
	speedOps float64
	// Quantum is the scheduler timeslice (counter recharge amount).
	Quantum simcore.Duration

	// PreemptLatencyMax, when nonzero, delays each wakeup preemption by a
	// uniform random span in [0, max): the scheduler-tick and interrupt
	// latency of a real kernel. Zero (the default) preempts instantly.
	PreemptLatencyMax simcore.Duration
	// rng is the host's own random stream, derived from its name so draws
	// do not depend on how the model was partitioned across shards.
	rng *rand.Rand

	tasks   []*Task
	nextID  int
	current *Task
	// failed freezes the scheduler entirely (see Fail/Restore).
	failed bool
	// sliceGen invalidates stale slice-end events; sliceFree pools them.
	sliceGen   int64
	sliceStart simcore.Time
	sliceFree  *sliceEnd
	// IdleTime accumulates time with no runnable task, for utilization
	// reporting.
	IdleTime  simcore.Duration
	idleSince simcore.Time
	idle      bool
}

// NewHost creates a host with the given speed in MIPS and timeslice
// quantum (DefaultQuantum if 0).
func NewHost(eng *simcore.Engine, name string, speedMIPS float64, quantum simcore.Duration) *Host {
	if speedMIPS <= 0 {
		panic(fmt.Sprintf("cpusched: non-positive speed %v", speedMIPS))
	}
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &Host{
		eng:      eng,
		Name:     name,
		speedOps: speedMIPS * 1e6,
		Quantum:  quantum,
		idle:     true,
	}
}

// Engine returns the engine the host runs on.
func (h *Host) Engine() *simcore.Engine { return h.eng }

// hostRand returns the host's per-entity random stream.
func (h *Host) hostRand() *rand.Rand {
	if h.rng == nil {
		h.rng = h.eng.DeriveRand("cpusched:host:" + h.Name)
	}
	return h.rng
}

// SpeedMIPS reports the host's CPU speed in MIPS.
func (h *Host) SpeedMIPS() float64 { return h.speedOps / 1e6 }

// SecondsFor returns the time this CPU needs, running alone, to execute
// ops operations.
func (h *Host) SecondsFor(ops float64) float64 { return ops / h.speedOps }

// Task is a schedulable entity on a Host. Tasks demand CPU via Compute (or
// BusyLoop) and may be suspended/resumed by SIGSTOP/SIGCONT analogs.
type Task struct {
	host *Host
	id   int
	Name string
	// Kernel marks a non-preemptible, always-preferred task (models
	// in-kernel work such as the IO competitor's buffer flushes).
	Kernel bool

	stopped    bool
	busyLoop   bool
	pendingOps float64
	counter    simcore.Duration // remaining timeslice credit
	usedCPU    simcore.Duration
	done       *simcore.Cond
	demand     *simcore.Cond // signaled when demand appears from idle
	// waiting guards the single-waiter Compute contract.
	waiting bool
	// OnSliceEnd, when set, observes every CPU slice this task receives.
	OnSliceEnd func(start simcore.Time, ran simcore.Duration)
}

// NewTask registers a new task, initially stopped == false with no demand.
func (h *Host) NewTask(name string) *Task {
	h.nextID++
	t := &Task{
		host:    h,
		id:      h.nextID,
		Name:    name,
		counter: h.Quantum,
		done:    simcore.NewCond(h.eng),
		demand:  simcore.NewCond(h.eng),
	}
	h.tasks = append(h.tasks, t)
	return t
}

// UsedCPU returns the CPU time this task has consumed, including the
// in-progress slice.
func (t *Task) UsedCPU() simcore.Duration {
	u := t.usedCPU
	if t.host.current == t {
		u += t.host.eng.Now().Sub(t.host.sliceStart)
	}
	return u
}

// Stopped reports whether the task is suspended.
func (t *Task) Stopped() bool { return t.stopped }

// runnable reports whether the task wants CPU now.
func (t *Task) runnable() bool {
	return !t.stopped && (t.busyLoop || t.pendingOps > 0)
}

// effCounter is the task's live priority: its counter minus time consumed
// in the current slice.
func (t *Task) effCounter() simcore.Duration {
	c := t.counter
	if t.host.current == t {
		c -= t.host.eng.Now().Sub(t.host.sliceStart)
	}
	if c < 0 {
		c = 0
	}
	return c
}

// Compute blocks the calling process until the host has executed ops
// operations on behalf of this task. Only one process may wait on a task.
func (t *Task) Compute(p *simcore.Proc, ops float64) {
	if ops <= 0 {
		return
	}
	if t.waiting {
		panic(fmt.Sprintf("cpusched: concurrent Compute on task %q", t.Name))
	}
	t.addDemand(ops)
	t.waiting = true
	for t.pendingOps > 0 {
		t.done.Wait(p)
	}
	t.waiting = false
}

// ComputeSeconds is Compute for a duration of this host's full-speed time.
func (t *Task) ComputeSeconds(p *simcore.Proc, s float64) {
	t.Compute(p, s*t.host.speedOps)
}

// AddDemand queues ops of work without blocking (event-style callers).
func (t *Task) AddDemand(ops float64) {
	if ops <= 0 {
		return
	}
	t.addDemand(ops)
}

func (t *Task) addDemand(ops float64) {
	wasIdle := !t.HasDemand()
	t.pendingOps += ops
	t.host.wakeup(t)
	if wasIdle {
		t.demand.Broadcast()
	}
}

// HasDemand reports whether the task currently wants CPU (ignoring
// suspension).
func (t *Task) HasDemand() bool { return t.busyLoop || t.pendingOps > 0 }

// WaitDemand parks p until the task has CPU demand. Used by the
// fraction-controller daemon so an idle virtual host generates no
// simulation events.
func (t *Task) WaitDemand(p *simcore.Proc) {
	for !t.HasDemand() {
		t.demand.Wait(p)
	}
}

// SetBusyLoop makes the task demand CPU forever (the paper's
// "computationally intense process doing floating-point divisions
// continuously").
func (t *Task) SetBusyLoop(on bool) {
	wasIdle := !t.HasDemand()
	t.busyLoop = on
	if on {
		t.host.wakeup(t)
		if wasIdle {
			t.demand.Broadcast()
		}
	} else if t.host.current == t && t.pendingOps <= 0 {
		// The CPU is free now: hand it on, or mark the host idle.
		t.host.endSlice()
		t.host.maybeSchedule()
	}
}

// Stop suspends the task (SIGSTOP analog). If it is on the CPU the slice
// ends immediately.
func (t *Task) Stop() {
	if t.stopped {
		return
	}
	if t.host.current == t {
		t.host.endSlice()
	}
	t.stopped = true
}

// Cont resumes a suspended task (SIGCONT analog).
func (t *Task) Cont() {
	if !t.stopped {
		return
	}
	t.stopped = false
	if t.runnable() {
		t.host.wakeup(t)
	}
}

// wakeup makes the scheduler reconsider after t became runnable, applying
// wakeup preemption: a strictly higher-priority waker preempts the current
// slice.
func (h *Host) wakeup(t *Task) {
	if h.current != nil {
		cur := h.current
		preempt := false
		if t.Kernel && !cur.Kernel {
			preempt = true
		} else if t.Kernel == cur.Kernel && t.effCounter() > cur.effCounter() {
			preempt = true
		}
		if preempt && !cur.Kernel {
			if h.PreemptLatencyMax > 0 {
				d := simcore.Duration(h.hostRand().Int63n(int64(h.PreemptLatencyMax)))
				gen := h.sliceGen
				h.eng.After(d, func() {
					if h.sliceGen == gen && h.current == cur {
						h.endSlice()
						h.maybeSchedule()
					}
				})
				return
			}
			h.endSlice()
			h.maybeSchedule()
		}
		return
	}
	h.maybeSchedule()
}

// pick selects the next task: kernel tasks first, then the largest counter;
// ties resolve by task id for determinism. Returns nil if no runnable task
// has credit (after attempting an epoch recharge) or none is runnable.
func (h *Host) pick() *Task {
	for attempt := 0; attempt < 2; attempt++ {
		var best *Task
		anyRunnable := false
		for _, t := range h.tasks {
			if !t.runnable() {
				continue
			}
			anyRunnable = true
			if t.counter <= 0 {
				continue
			}
			if best == nil {
				best = t
				continue
			}
			if t.Kernel != best.Kernel {
				if t.Kernel {
					best = t
				}
				continue
			}
			if t.counter > best.counter {
				best = t
			}
		}
		if best != nil || !anyRunnable {
			return best
		}
		// Epoch recharge (Linux 2.2): every task, including sleepers,
		// gets counter = counter/2 + quantum, letting interactive tasks
		// accumulate priority while bounded at 2× quantum.
		for _, t := range h.tasks {
			t.counter = t.counter/2 + h.Quantum
			if t.counter > 2*h.Quantum {
				t.counter = 2 * h.Quantum
			}
		}
	}
	return nil
}

// maybeSchedule starts a slice if the CPU is free and work exists.
func (h *Host) maybeSchedule() {
	if h.current != nil || h.failed {
		return
	}
	t := h.pick()
	if t == nil {
		if !h.idle {
			h.idle = true
			h.idleSince = h.eng.Now()
		}
		return
	}
	if h.idle {
		h.IdleTime += h.eng.Now().Sub(h.idleSince)
		h.idle = false
	}
	h.current = t
	h.sliceStart = h.eng.Now()
	// Slice length: the task's remaining credit, shortened if its work
	// finishes first. Busy loops run to credit exhaustion.
	slice := t.counter
	if !t.busyLoop {
		need := simcore.DurationOfSeconds(t.pendingOps / h.speedOps)
		if need < slice {
			slice = need
		}
	}
	if slice <= 0 {
		slice = simcore.Nanosecond
	}
	h.sliceGen++
	h.eng.After(slice, h.newSliceEnd(t).run)
}

// sliceEnd is the pending end of one slice, pooled on its Host: run is
// bound once per instance, so starting a slice allocates nothing. A slice
// ended early (preemption, Stop) leaves its event stale; it still fires,
// fails the gen check, and returns to the pool.
type sliceEnd struct {
	h    *Host
	t    *Task
	gen  int64
	run  func()
	free *sliceEnd
}

func (h *Host) newSliceEnd(t *Task) *sliceEnd {
	s := h.sliceFree
	if s == nil {
		s = &sliceEnd{h: h}
		s.run = s.fire
	} else {
		h.sliceFree = s.free
		s.free = nil
	}
	s.t, s.gen = t, h.sliceGen
	return s
}

// fire returns the event to its pool before running, so the next slice it
// starts can reuse it.
func (s *sliceEnd) fire() {
	h, t, gen := s.h, s.t, s.gen
	s.t = nil
	s.free = h.sliceFree
	h.sliceFree = s
	if gen != h.sliceGen || h.current != t {
		return
	}
	h.endSlice()
	h.maybeSchedule()
}

// endSlice accounts the in-progress slice and frees the CPU.
func (h *Host) endSlice() {
	t := h.current
	if t == nil {
		return
	}
	ran := h.eng.Now().Sub(h.sliceStart)
	h.sliceGen++ // cancel the pending slice-end event
	h.current = nil
	t.counter -= ran
	if t.counter < 0 {
		t.counter = 0
	}
	t.usedCPU += ran
	if !t.busyLoop {
		t.pendingOps -= float64(ran) / 1e9 * h.speedOps
		if t.pendingOps < 1e-6 {
			t.pendingOps = 0
			t.done.Broadcast()
		}
	}
	if t.OnSliceEnd != nil && ran > 0 {
		t.OnSliceEnd(h.sliceStart, ran)
	}
	if ran > 0 {
		if rec := h.eng.Recorder(); rec.Enabled(trace.CatCPU) {
			rec.Span(trace.CatCPU, "slice", int64(h.sliceStart), int64(ran),
				trace.Attr{Host: h.Name, Detail: t.Name})
		}
	}
}

// Utilization returns the fraction of time the CPU was busy since start.
func (h *Host) Utilization() float64 {
	now := h.eng.Now()
	if now == 0 {
		return 0
	}
	idle := h.IdleTime
	if h.idle {
		idle += now.Sub(h.idleSince)
	}
	return 1 - float64(idle)/float64(now)
}
