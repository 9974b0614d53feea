package core

import (
	"runtime"
	"testing"
	"time"

	"microgrid/internal/chaos"
	"microgrid/internal/npb"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

// A model that is built but never run holds no goroutines: a process
// gets its coroutine on its first resume, so dropping the model frees
// every spawned process with it.
func TestBuiltModelLeavesNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := ChaosCrashScenario()
		s.Workload.Class = byte(npb.ClassS)
		cs, err := chaos.ParseScheduleString("schedule host-crash\nat 100ms crash vm1\n")
		if err != nil {
			t.Fatal(err)
		}
		s.Chaos = cs
		s.Retry = &scenario.RetrySpec{StatusTimeout: simcore.Second, MaxAttempts: 3, Backoff: 100 * simcore.Millisecond}
		if _, err := BuildScenario(s); err != nil {
			t.Fatal(err)
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
		t.Fatalf("%d goroutines after dropping 5 built models, %d before", n, base)
	}
}
