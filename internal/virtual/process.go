package virtual

import (
	"fmt"

	"microgrid/internal/memmodel"
	"microgrid/internal/simcore"
)

// Process is an application process on a virtual host: the virtual Grid
// interface. Its methods are the analogs of the library calls the real
// MicroGrid intercepts — gethostname, gettimeofday, socket operations —
// plus explicit Compute/Malloc since our applications are models rather
// than native binaries.
type Process struct {
	host *Host
	proc *simcore.Proc
	mem  *memmodel.ProcMem
	dead bool
}

// Spawn starts fn as a new process on the virtual host. The process's
// memory account is charged the standard overhead; Spawn fails if the host
// is out of memory.
func (h *Host) Spawn(name string, fn func(p *Process)) (*Process, error) {
	if h.down {
		return nil, fmt.Errorf("virtual: host %s is down", h.Name)
	}
	h.nprocs++
	pname := fmt.Sprintf("%s/%s#%d", h.Name, name, h.nprocs)
	mem, err := h.Mem.NewProcess(pname)
	if err != nil {
		return nil, err
	}
	vp := &Process{host: h, mem: mem}
	h.procs = append(h.procs, vp)
	vp.proc = h.eng.Spawn(pname, func(p *simcore.Proc) {
		vp.proc = p
		defer func() {
			vp.dead = true
			mem.Release()
			h.dropProc(vp)
		}()
		fn(vp)
	})
	return vp, nil
}

func (h *Host) dropProc(vp *Process) {
	for i, x := range h.procs {
		if x == vp {
			h.procs = append(h.procs[:i], h.procs[i+1:]...)
			return
		}
	}
}

// SpawnDaemon is Spawn for processes expected to outlive the run (accept
// loops); they do not count as deadlocks at engine drain.
func (h *Host) SpawnDaemon(name string, fn func(p *Process)) (*Process, error) {
	vp, err := h.Spawn(name, fn)
	if err != nil {
		return nil, err
	}
	vp.proc.SetDaemon(true)
	return vp, nil
}

// Host returns the virtual host this process runs on.
func (p *Process) Host() *Host { return p.host }

// Proc exposes the underlying simulation process (for primitives).
func (p *Process) Proc() *simcore.Proc { return p.proc }

// Gethostname returns the virtual host name — the intercepted
// gethostname() of the paper.
func (p *Process) Gethostname() string { return p.host.Name }

// Gettimeofday returns the current virtual time — the intercepted
// gettimeofday(), giving "the illusion of a virtual machine at full
// speed".
func (p *Process) Gettimeofday() simcore.Time { return p.host.clock.Gettimeofday() }

// ToPhysical converts a span of virtual time to engine (physical) time —
// for primitives outside this package that take engine-time deadlines.
func (p *Process) ToPhysical(d simcore.Duration) simcore.Duration {
	return p.host.clock.ToPhysical(d)
}

// Kill forcibly terminates the process (the SIGKILL analog): it unwinds
// at its current blocking point, releasing its memory. If it was holding
// the host CPU mid-Compute, the queued demand is cancelled and the CPU
// freed so surviving processes are not wedged behind a corpse.
func (p *Process) Kill() {
	if p.dead {
		return
	}
	h := p.host
	if h.cpu.Owner() == p.proc {
		h.task.CancelPending()
		h.cpu.ForceUnlock()
	}
	h.eng.Kill(p.proc)
}

// Sleep suspends the process for a span of *virtual* time.
func (p *Process) Sleep(d simcore.Duration) { p.host.clock.SleepVirtual(p.proc, d) }

// Malloc charges bytes against the virtual host's memory capacity.
func (p *Process) Malloc(bytes int64) error { return p.mem.Malloc(bytes) }

// acquireCPU serializes this host's single virtual CPU among processes.
func (h *Host) acquireCPU(p *simcore.Proc) { h.cpu.Lock(p) }

func (h *Host) releaseCPU() { h.cpu.Unlock() }

// Compute executes ops operations on the virtual CPU, blocking in
// simulation until they complete. Ops are in virtual-host units: running
// alone, ops = CPUSpeedMIPS·1e6 takes one virtual second.
func (p *Process) Compute(ops float64) {
	if ops <= 0 {
		return
	}
	h := p.host
	h.acquireCPU(p.proc)
	h.task.Compute(p.proc, ops)
	h.releaseCPU()
}

// ComputeVirtualSeconds executes s seconds' worth of the virtual CPU's
// full-speed work.
func (p *Process) ComputeVirtualSeconds(s float64) {
	p.Compute(s * p.host.CPUSpeedMIPS * 1e6)
}

// ChargeMessage bills the CPU cost of one message send or receive: the
// fixed per-message overhead plus the per-byte copy cost.
func (p *Process) ChargeMessage(bytes int) {
	g := p.host.grid
	p.Compute(g.sendOverheadOps + g.perByteOps*float64(bytes))
}
