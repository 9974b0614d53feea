package simcore

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
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
// while the other shard runs in the same window: shard 0 runs on the
// coordinator goroutine and shard 1 on a goroutine of its own, and the
// panic reaches the caller from either.
func TestProcPanicReachesParallelRunCaller(t *testing.T) {
	for bad := 0; bad < 2; bad++ {
		pe := NewParallelEngine(1, 2)
		pe.Shard(1-bad).Spawn("busy", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Microsecond)
			}
		})
		pe.Shard(bad).Spawn("bad", func(p *Proc) {
			p.Sleep(10 * Microsecond)
			panic("model bug")
		})
		checkProcPanic(t, runPanics(pe.Run))
	}
}

// A panic that unwinds Run first aborts the run's other parked
// processes, in id order on every shard, so none of their coroutines
// outlive the recovered panic; the value still names the process.
func TestProcPanicAbortsParkedProcesses(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runtime.GC()
			base := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				var engs []*Engine
				var run func() error
				if shards == 1 {
					eng := NewEngine(1)
					engs, run = []*Engine{eng}, eng.Run
				} else {
					pe := NewParallelEngine(1, shards)
					engs, run = []*Engine{pe.Shard(0), pe.Shard(1)}, pe.Run
				}
				var unwound []string
				for k := 0; k < 4; k++ {
					name := fmt.Sprintf("sleeper-%d", k)
					engs[k%len(engs)].Spawn(name, func(p *Proc) {
						defer func() { unwound = append(unwound, name) }()
						for { // keeps every shard busy in the panic's window
							p.Sleep(Microsecond)
						}
					})
				}
				engs[len(engs)-1].Spawn("bad", func(p *Proc) {
					p.Sleep(Millisecond)
					panic("model bug")
				})
				checkProcPanic(t, runPanics(run))
				want := "[sleeper-0 sleeper-1 sleeper-2 sleeper-3]"
				if shards == 2 {
					want = "[sleeper-0 sleeper-2 sleeper-1 sleeper-3]"
				}
				if got := fmt.Sprint(unwound); got != want {
					t.Fatalf("processes unwound %s, want %s", got, want)
				}
				for _, e := range engs {
					if len(e.procs) != 0 {
						t.Fatalf("%d processes left after the panic", len(e.procs))
					}
				}
			}
			// Exited goroutines can take a moment to leave the count.
			n := 0
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				runtime.GC()
				if n = runtime.NumGoroutine(); n <= base || time.Now().After(deadline) {
					break
				}
			}
			if n > base {
				t.Fatalf("%d goroutines after 5 panicked runs, %d before", n, base)
			}
		})
	}
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
