package cpusched

// Fault and load injection: a physical machine can fail outright (nothing
// schedules until it is restored), a killed process's queued demand can be
// cancelled, and a competing compute-bound or IO-bound process can be
// started to steal cycles — the chaos subsystem's CPU load and the paper's
// Fig. 6–7 competitors.

import (
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Fail marks the host failed: the in-progress slice ends and no task is
// scheduled until Restore. Task state (registrations, counters, pending
// demand) is preserved but frozen; the virtual layer crashes the
// machine's virtual hosts separately.
func (h *Host) Fail() {
	if h.failed {
		return
	}
	h.endSlice()
	h.failed = true
	if !h.idle {
		h.idle = true
		h.idleSince = h.eng.Now()
	}
	if rec := h.eng.Recorder(); rec.Enabled(trace.CatCPU) {
		rec.Event(trace.CatCPU, "host-fail", trace.Attr{Host: h.Name})
	}
}

// Failed reports whether the host is failed.
func (h *Host) Failed() bool { return h.failed }

// Restore brings a failed host back; runnable tasks resume scheduling.
func (h *Host) Restore() {
	if !h.failed {
		return
	}
	h.failed = false
	if rec := h.eng.Recorder(); rec.Enabled(trace.CatCPU) {
		rec.Event(trace.CatCPU, "host-restore", trace.Attr{Host: h.Name})
	}
	h.maybeSchedule()
}

// CancelPending discards the task's queued compute demand — the crash
// cleanup for a killed process that will never collect its Compute
// result. The in-progress slice (if this task holds the CPU) ends, the
// busy-loop flag clears, and the single-waiter slot reopens.
func (t *Task) CancelPending() {
	h := t.host
	if h.current == t {
		h.endSlice()
	}
	t.pendingOps = 0
	t.busyLoop = false
	t.waiting = false
	h.maybeSchedule()
}

// StartCompetitor registers and starts a busy-loop task: the paper's
// competing compute-bound process. Stop it with SetBusyLoop(false) on
// the returned task.
func (h *Host) StartCompetitor(name string) *Task {
	if rec := h.eng.Recorder(); rec.Enabled(trace.CatCPU) {
		rec.Event(trace.CatCPU, "load-inject", trace.Attr{Host: h.Name, Detail: name})
	}
	t := h.NewTask(name)
	t.SetBusyLoop(true)
	return t
}

// StartIOCompetitor spawns the paper's IO-intensive competitor: it
// repeatedly "flushes a 1 MB buffer to disk", modeled as a short burst of
// non-preemptible kernel CPU (copying/driver work) followed by sleeping on
// the disk. Returns the controlling process.
func StartIOCompetitor(h *Host, name string) *simcore.Proc {
	user := h.NewTask(name)
	kern := h.NewTask(name + ":kflush")
	kern.Kernel = true
	pr := h.eng.Spawn(name, func(p *simcore.Proc) {
		rng := h.eng.DeriveRand("cpusched:io:" + h.Name + ":" + name)
		for {
			// Prepare the buffer in user mode (~0.3 ms of CPU).
			user.ComputeSeconds(p, 0.0003)
			// Kernel-side flush: 0.2–1.2 ms non-preemptible.
			kern.Compute(p, (0.0002+0.001*rng.Float64())*h.speedOps)
			// Wait for the disk (5–12 ms).
			p.Sleep(5*simcore.Millisecond + simcore.Duration(rng.Intn(7))*simcore.Millisecond)
		}
	})
	pr.SetDaemon(true)
	return pr
}
