package simcore

import "testing"

// stepUntil runs e's dispatch loop up to, but not including, end. Unlike
// RunUntil it does not shut the engine's processes down afterwards, so a
// test can advance a live simulation in slices.
func stepUntil(e *Engine, end Time) { e.runWindow(end) }

// TestSleepZeroAlloc pins a Proc.Sleep park and resume at zero heap
// allocations: the wakeup is the process's own wake func, bound once at
// spawn.
func TestSleepZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	defer e.shutdown()
	stepUntil(e, Time(100*Microsecond)) // start the coroutine, warm the lane
	if allocs := testing.AllocsPerRun(1000, func() {
		stepUntil(e, e.now.Add(Microsecond)+1)
	}); allocs != 0 {
		t.Errorf("Sleep park and resume: %v allocs, want 0", allocs)
	}
}

// TestCondPingPongZeroAlloc pins a two-process Cond.Wait/Signal ping-pong
// at zero heap allocations: each Wait takes a waiter from the engine's
// pool, and the waiter itself is the delivery event Signal schedules.
func TestCondPingPongZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	ping, pong := NewCond(e), NewCond(e)
	rounds := 0
	e.Spawn("pong", func(p *Proc) {
		for {
			ping.Wait(p)
			pong.Signal(nil)
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ping.Signal(nil)
			pong.Wait(p)
			rounds++
		}
	})
	defer e.shutdown()
	stepUntil(e, Time(100*Microsecond))
	before := rounds
	if allocs := testing.AllocsPerRun(1000, func() {
		stepUntil(e, e.now.Add(Microsecond)+1)
	}); allocs != 0 {
		t.Errorf("Cond ping-pong round: %v allocs, want 0", allocs)
	}
	if got := rounds - before; got != 1001 {
		t.Errorf("ping-pong ran %d rounds in 1001 steps", got)
	}
}
