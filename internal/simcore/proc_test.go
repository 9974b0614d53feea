package simcore

import (
	"fmt"
	"strings"
	"testing"
)

// runPanics runs fn and returns the value it panicked with, or nil.
func runPanics(fn func() error) (r any) {
	defer func() { r = recover() }()
	if err := fn(); err != nil {
		return err
	}
	return nil
}

// checkProcPanic asserts that r is a process panic naming the process
// "bad" and carrying its original value.
func checkProcPanic(t *testing.T, r any) {
	t.Helper()
	msg := fmt.Sprint(r)
	if r == nil || !strings.Contains(msg, `process "bad"`) || !strings.Contains(msg, "model bug") {
		t.Fatalf("Run: got %v, want a panic naming process \"bad\" with its value", r)
	}
}

// A panic inside a process unwinds the serial engine's Run on the
// caller's goroutine, with the process name in the value.
func TestProcPanicReachesRunCaller(t *testing.T) {
	eng := NewEngine(1)
	eng.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	eng.Spawn("bad", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("model bug")
	})
	checkProcPanic(t, runPanics(eng.Run))
}

// The same holds for a process on one shard of a 2-shard ParallelEngine
// while the other shard runs in the same window on its own goroutine.
func TestProcPanicReachesParallelRunCaller(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.Shard(0).Spawn("busy", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
		}
	})
	pe.Shard(1).Spawn("bad", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		panic("model bug")
	})
	checkProcPanic(t, runPanics(pe.Run))
}

// A process gets its coroutine on its first resume: one that never runs
// is aborted with no switch, and one that ran is left with no coroutine
// to resume once it exits.
func TestProcCoroutineCreatedLazily(t *testing.T) {
	eng := NewEngine(1)
	ran := eng.Spawn("ran", func(p *Proc) { p.Sleep(Millisecond) })
	late := eng.SpawnAt(Time(Second), "late", func(p *Proc) { t.Error("late process ran") })
	if ran.next != nil || late.next != nil {
		t.Fatal("coroutine created at spawn")
	}
	if err := eng.RunUntil(Time(10 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ran.next == nil {
		t.Error("process that ran has no coroutine")
	}
	if late.next != nil || late.state != procDead {
		t.Errorf("never-run process: coroutine %v, state %d; want none, dead", late.next != nil, late.state)
	}
	if len(eng.procs) != 0 {
		t.Errorf("%d processes left after shutdown", len(eng.procs))
	}
}
