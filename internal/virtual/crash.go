package virtual

import (
	"fmt"

	"microgrid/internal/simcore"
)

// Host crash/reboot — the dynamic-availability half of the paper's
// "modeling computational grids" pitch (§1): Grid resources join, fail
// and recover, and middleware must be studied under exactly that. A
// crash is fail-stop: every resident process dies instantly, in-flight
// network state is torn down (peers discover the failure through their
// transports), and the host stops answering the network until Reboot.
// The host's *identity* — name, IP, memory capacity, placement — always
// stays consistent: the vIP table keeps mapping the IP to this Host
// value, whose Down() truthfully reports its state.

// Down reports whether the host is crashed.
func (h *Host) Down() bool { return h.down }

// Crash fails the virtual host at the current instant. Resident
// processes (applications, jobmanagers, daemons) are killed, listeners
// and connections torn down, queued compute discarded, and the Grid's
// OnCrash hook (if any) runs last so middleware can deregister the host.
// Crashing a crashed host is a no-op.
func (h *Host) Crash() {
	if h.down {
		return
	}
	h.down = true
	// Kill a snapshot: each kill mutates h.procs via the spawn defer.
	for _, vp := range append([]*Process(nil), h.procs...) {
		vp.Kill()
	}
	h.Node.SetCrashed(true)
	h.task.CancelPending()
	if h.job != nil {
		if mc := h.grid.controllers[h.Phys.Name]; mc != nil {
			mc.RemoveJob(h.job)
		}
		h.job = nil
	}
	// Fresh CPU lock: any waiters on the old one are dead.
	h.cpu = simcore.NewMutex(h.eng)
	if h.grid.OnCrash != nil {
		h.grid.OnCrash(h)
	}
}

// Reboot restores a crashed host: it answers the network again and can
// spawn processes. Nothing that ran before the crash survives; the
// Grid's OnReboot hook restarts middleware daemons in the assembled
// system. Reboot fails only if the host's scheduler daemon cannot take
// its CPU fraction back.
func (h *Host) Reboot() error {
	if !h.down {
		return nil
	}
	h.down = false
	h.Node.SetCrashed(false)
	if !h.grid.direct {
		job, err := h.grid.controllerFor(h.Phys).AddJob(h.task, h.Fraction)
		if err != nil {
			h.down = true
			h.Node.SetCrashed(true)
			return fmt.Errorf("virtual: reboot %s: %w", h.Name, err)
		}
		h.job = job
	}
	if h.grid.OnReboot != nil {
		h.grid.OnReboot(h)
	}
	return nil
}
