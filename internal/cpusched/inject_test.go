package cpusched

import (
	"testing"

	"microgrid/internal/simcore"
)

// A busy-loop competitor halves delivered CPU under the fair scheduler.
func TestStartCompetitorHalvesThroughput(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "p0", 100, 0)
	task := h.NewTask("t")
	var done simcore.Time
	eng.Spawn("worker", func(p *simcore.Proc) {
		task.ComputeSeconds(p, 1)
		done = p.Now()
	})
	comp := h.StartCompetitor("competitor")
	eng.After(simcore.Duration(2100)*simcore.Millisecond, func() { comp.SetBusyLoop(false) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With a 50% competitor, 1 s of work takes ~2 s.
	if done < simcore.Time(1900*simcore.Millisecond) || done > simcore.Time(2100*simcore.Millisecond) {
		t.Errorf("completion at %v, want ~2s", done)
	}
}

// CancelPending discards queued demand so the host goes idle.
func TestCancelPending(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "p0", 100, 0)
	task := h.NewTask("t")
	// 10 s of work for a process that, like a crashed host's, never
	// collects the result.
	pr := eng.Spawn("worker", func(p *simcore.Proc) { task.ComputeSeconds(p, 10) })
	pr.SetDaemon(true)
	eng.After(1*simcore.Second, func() {
		task.CancelPending()
		if task.pendingOps > 0 {
			t.Error("task still has demand after CancelPending")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := eng.Now(); got != simcore.Time(1*simcore.Second) {
		t.Errorf("engine drained at %v, want 1s (work cancelled)", got)
	}
}
