package simcore

import (
	"testing"
)

// A killed sleeping process must unwind (running its defers) and never
// execute past its blocking point; its pending timer wakeup must be
// discarded silently.
func TestKillSleepingProc(t *testing.T) {
	eng := NewEngine(1)
	var reachedEnd, cleaned bool
	victim := eng.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(10 * Second)
		reachedEnd = true
	})
	eng.After(1*Second, func() { eng.Kill(victim) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reachedEnd {
		t.Error("victim ran past its Sleep after being killed")
	}
	if !cleaned {
		t.Error("victim's deferred cleanup did not run")
	}
	if !victim.Killed() {
		t.Error("victim not marked killed")
	}
}

// Killing a process that holds a mutex, combined with ForceUnlock, must
// hand the lock to the next waiter rather than stranding it.
func TestKillMutexHolderForceUnlock(t *testing.T) {
	eng := NewEngine(1)
	mu := NewMutex(eng)
	var got bool
	holder := eng.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(100 * Second) // never unlocks on its own
		mu.Unlock()
	})
	eng.Spawn("waiter", func(p *Proc) {
		p.Sleep(1 * Second)
		mu.Lock(p)
		got = true
		mu.Unlock()
	})
	eng.After(2*Second, func() {
		if mu.Owner() != holder {
			t.Errorf("mutex owner = %v, want holder", mu.Owner())
		}
		eng.Kill(holder)
		mu.ForceUnlock()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Error("waiter never acquired the force-unlocked mutex")
	}
	if mu.held {
		t.Error("mutex still held at end of run")
	}
}

// A Signal aimed at a waiter that is killed at the same instant must be
// re-delivered to the next waiter, not lost.
func TestSignalRedeliveredPastKilledWaiter(t *testing.T) {
	eng := NewEngine(1)
	cond := NewCond(eng)
	var first, second *Proc
	var got any
	first = eng.Spawn("first", func(p *Proc) {
		cond.Wait(p)
		t.Error("first (killed) waiter was woken")
	})
	second = eng.Spawn("second", func(p *Proc) {
		p.Sleep(1 * Millisecond) // queue behind first
		got = cond.Wait(p)
	})
	eng.After(1*Second, func() {
		// Signal picks "first", then "first" dies before delivery.
		cond.Signal("payload")
		eng.Kill(first)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "payload" {
		t.Errorf("second waiter got %v, want payload", got)
	}
	_ = second
}

// Kill during a queue handoff: the item must remain available to a live
// consumer.
func TestKillQueueConsumer(t *testing.T) {
	eng := NewEngine(1)
	q := NewQueue[any](eng)
	var got any
	dead := eng.Spawn("dead-consumer", func(p *Proc) {
		v, ok := q.Get(p)
		t.Errorf("dead consumer got %v ok=%v", v, ok)
	})
	eng.Spawn("live-consumer", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		v, ok := q.Get(p)
		if !ok {
			t.Error("live consumer: queue closed")
		}
		got = v
	})
	eng.After(1*Second, func() {
		q.TryPut(42) // signals dead-consumer first
		eng.Kill(dead)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Errorf("live consumer got %v, want 42", got)
	}
}

// Self-kill: a process may Kill itself; it unwinds at its next park.
func TestSelfKill(t *testing.T) {
	eng := NewEngine(1)
	var after bool
	eng.Spawn("suicidal", func(p *Proc) {
		eng.Kill(p)
		p.Sleep(1 * Millisecond)
		after = true
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after {
		t.Error("process survived self-kill past its next park")
	}
}

// Killing an already-exited process is a no-op, and double-kill is safe.
func TestKillExitedProc(t *testing.T) {
	eng := NewEngine(1)
	p := eng.Spawn("short", func(p *Proc) { p.Sleep(1 * Millisecond) })
	eng.After(1*Second, func() {
		eng.Kill(p)
		eng.Kill(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A killed process must not count toward deadlock detection.
func TestKillNoDeadlock(t *testing.T) {
	eng := NewEngine(1)
	cond := NewCond(eng)
	p := eng.Spawn("stuck", func(p *Proc) { cond.Wait(p) })
	eng.After(1*Second, func() { eng.Kill(p) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run after kill: %v", err)
	}
}
