//go:build go1.23

// The tag lifts this file to Go 1.23 for iter.Pull; go.mod stays at 1.22.

package simcore

import (
	"fmt"
	"iter"

	"microgrid/internal/trace"
)

type procState uint8

const (
	procRunning procState = iota
	procParked
	procDead
)

// errAborted is the panic value used to unwind aborted processes.
var errAborted = &struct{ msg string }{"simcore: process aborted"}

// Proc is a simulation process: a coroutine (iter.Pull) that the Engine
// resumes from its event loop and that hands control back, by a direct
// runtime switch, when it blocks. All blocking must go through Proc
// methods or engine-aware primitives (Cond, Queue); blocking on ordinary Go
// channels from inside a process would stall the whole simulation.
type Proc struct {
	eng  *Engine
	id   int64
	name string
	// next resumes the coroutine, created on the first resume, and
	// yield, called from inside it, parks it; val and aborting carry
	// the wakeup across the switch.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// fn is the body, held until the first wake starts the coroutine;
	// wake is the process's resume event, bound once at spawn.
	fn       func(p *Proc)
	wake     func()
	val      any
	state    procState
	daemon   bool
	aborting bool
	// killed marks a process condemned by Engine.Kill: pending wakeups
	// for it are discarded and Cond signals pass it over.
	killed bool
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// SetDaemon marks the process as a daemon: a daemon blocked forever at the
// end of the run (e.g. an accept loop) does not count as a deadlock.
func (p *Proc) SetDaemon(daemon bool) { p.daemon = daemon }

// Killed reports whether the process has been condemned by Engine.Kill
// (or has already unwound as a result).
func (p *Proc) Killed() bool { return p.killed }

// Spawn creates a new process executing fn, scheduled to start at the
// current simulated time (after already-queued events at this time).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a new process executing fn, starting at time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if e.rec.Enabled(trace.CatProc) {
		e.rec.Event(trace.CatProc, "spawn", trace.Attr{Detail: name})
	}
	e.seq++
	p := &Proc{eng: e, id: e.seq, name: name, state: procParked, fn: fn}
	p.wake = p.resume
	e.procs[p] = struct{}{}
	e.At(t, p.wake)
	return p
}

// resume is the process's wakeup event (p.wake): its first firing starts
// the coroutine, later ones end a Sleep or Yield.
func (p *Proc) resume() {
	if p.next == nil {
		if p.state != procParked || p.killed { // aborted before it ran
			return
		}
		fn := p.fn
		p.fn = nil
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) { p.body(yield, fn) })
	}
	p.eng.resumeProc(p, nil)
}

// body is the coroutine: it runs fn to completion or to an abort. A
// panic in fn is re-raised with the process name; iter.Pull carries it
// out of next, so it reaches the caller of Run.
func (p *Proc) body(yield func(struct{}) bool, fn func(p *Proc)) {
	p.yield = yield
	defer func() {
		p.state = procDead
		if r := recover(); r != nil && r != any(errAborted) {
			panic(fmt.Sprintf("simcore: process %q panicked: %v", p.name, r))
		}
	}()
	fn(p)
	delete(p.eng.procs, p)
}

// resumeProc switches to p, handing it v, until p parks again or exits.
// It must only be called from the engine's event loop (i.e. inside event
// callbacks), never from another process.
func (e *Engine) resumeProc(p *Proc, v any) {
	if p.killed || p.state == procDead {
		// A wakeup (timer, signal) raced with Engine.Kill; the target is
		// gone, so the wakeup evaporates.
		return
	}
	if p.state != procParked {
		panic(fmt.Sprintf("simcore: resuming process %q in state %d", p.name, p.state))
	}
	p.state, p.val = procRunning, v
	p.next()
}

// park suspends the calling process until a resume, returning its value.
func (p *Proc) park() any {
	p.state = procParked
	p.yield(struct{}{})
	if p.aborting {
		panic(errAborted)
	}
	v := p.val
	p.val = nil
	return v
}

// scheduleResume queues p's wake event at time t.
func (p *Proc) scheduleResume(t Time) {
	p.eng.At(t, p.wake)
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simcore: negative sleep %v", d))
	}
	p.scheduleResume(p.eng.now.Add(d))
	p.park()
}

// Yield reschedules the process after all events already queued for the
// current instant, without advancing time.
func (p *Proc) Yield() {
	p.scheduleResume(p.eng.now)
	p.park()
}
