package virtual

import (
	"fmt"

	"microgrid/internal/cpusched"
	"microgrid/internal/simcore"
)

// Migrate remaps the virtual host onto another physical machine — the
// paper's near-term future-work item "dynamic mapping of virtual
// resources" (§5). The host's identity (name, IP, memory, network
// attachment) is unchanged; only its compute placement moves.
//
// Migration requires the host to be computationally quiescent: no process
// may be mid-Compute (network waits are fine). A real implementation
// would checkpoint the process; requiring quiescence models migrating
// between application phases.
func (h *Host) Migrate(target *cpusched.Host) error {
	if target == h.Phys {
		return nil
	}
	fraction, err := h.checkMigrate(target)
	if err != nil {
		return err
	}
	if h.cpu.Held() || h.task.HasDemand() {
		return fmt.Errorf("virtual: migrate %s: host is computing; migration requires quiescence", h.Name)
	}
	return h.commitPlacement(target, fraction)
}

// checkMigrate validates feasibility of moving h onto target and returns
// the CPU fraction the new placement would use.
func (h *Host) checkMigrate(target *cpusched.Host) (float64, error) {
	if target == nil {
		return 0, fmt.Errorf("virtual: migrate %s: nil target", h.Name)
	}
	if h.down {
		return 0, fmt.Errorf("virtual: migrate %s: host is down", h.Name)
	}
	if target.Engine() != h.eng {
		return 0, fmt.Errorf("virtual: migrate %s: target %s lives on a different PDES shard", h.Name, target.Name)
	}
	g := h.grid
	if g.direct {
		if h.CPUSpeedMIPS > target.SpeedMIPS()+1e-9 {
			return 0, fmt.Errorf("virtual: migrate %s: direct mode needs physical ≥ %.0f MIPS, %s has %.0f",
				h.Name, h.CPUSpeedMIPS, target.Name, target.SpeedMIPS())
		}
		return 1, nil
	}
	fraction := h.CPUSpeedMIPS * g.rate / target.SpeedMIPS()
	if fraction > 1+1e-9 {
		return 0, fmt.Errorf("virtual: migrate %s: needs fraction %.3f of %s (infeasible at rate %.4g)",
			h.Name, fraction, target.Name, g.rate)
	}
	return fraction, nil
}

// commitPlacement atomically moves the host's compute placement onto
// target. The caller has validated feasibility.
func (h *Host) commitPlacement(target *cpusched.Host, fraction float64) error {
	g := h.grid
	// Retire the old placement.
	if h.job != nil {
		if mc := g.controllers[h.Phys.Name]; mc != nil {
			mc.RemoveJob(h.job)
		}
		h.job = nil
	}
	// New task on the target, under its scheduler daemon.
	h.Phys = target
	h.Fraction = fraction
	h.task = target.NewTask("vhost:" + h.Name)
	if !g.direct {
		job, err := g.controllerFor(target).AddJob(h.task, fraction)
		if err != nil {
			return fmt.Errorf("virtual: migrate %s: %w", h.Name, err)
		}
		h.job = job
	}
	return nil
}

// Migration tracks an in-flight staged migration started by
// MigrateStaged. It resolves exactly once: either committed (placement
// moved) or rolled back (placement unchanged, Reason explains why).
type Migration struct {
	host      *Host
	target    *cpusched.Host
	done      bool
	committed bool
	reason    string
	fin       *simcore.Cond
}

// Done reports whether the migration has resolved.
func (m *Migration) Done() bool { return m.done }

// Committed reports whether the migration committed (false while pending
// or after rollback).
func (m *Migration) Committed() bool { return m.committed }

// Reason explains a rollback ("" while pending or after commit).
func (m *Migration) Reason() string { return m.reason }

// Wait parks p until the migration resolves.
func (m *Migration) Wait(p *simcore.Proc) {
	for !m.done {
		m.fin.Wait(p)
	}
}

// MigrateStaged migrates with an explicit copy phase of copyTime engine
// time, modeling checkpoint transfer: the host keeps running on the
// source during the copy, and at copy end the move either commits
// atomically or rolls back — if the source crashed or the host is not
// quiescent at the commit point, the placement stays where it was. In
// every outcome the vIP table and the placement remain consistent.
func (h *Host) MigrateStaged(target *cpusched.Host, copyTime simcore.Duration) (*Migration, error) {
	mig := &Migration{host: h, target: target, fin: simcore.NewCond(h.eng)}
	if target == h.Phys {
		mig.done = true
		mig.committed = true
		return mig, nil
	}
	fraction, err := h.checkMigrate(target)
	if err != nil {
		return nil, err
	}
	h.eng.After(copyTime, func() {
		mig.done = true
		defer mig.fin.Broadcast()
		switch {
		case h.down:
			mig.reason = "source host crashed during copy"
		case h.cpu.Held() || h.task.HasDemand():
			mig.reason = "host not quiescent at commit; rolled back"
		default:
			if err := h.commitPlacement(target, fraction); err != nil {
				mig.reason = err.Error()
				return
			}
			mig.committed = true
		}
	})
	return mig, nil
}
