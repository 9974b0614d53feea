package cpusched

import (
	"math"
	"testing"
	"testing/quick"

	"microgrid/internal/simcore"
)

func TestComputeAloneTakesExpectedTime(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "alpha", 533, 0)
	task := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		task.Compute(p, 533e6) // one second of work at 533 MIPS
		done = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done.Seconds()-1.0) > 1e-6 {
		t.Fatalf("done at %v, want 1s", done)
	}
	if got := task.UsedCPU(); math.Abs(got.Seconds()-1.0) > 1e-6 {
		t.Fatalf("UsedCPU = %v", got)
	}
}

func TestComputeSeconds(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	task := h.NewTask("job")
	eng.Spawn("job", func(p *simcore.Proc) {
		task.ComputeSeconds(p, 0.25)
		if math.Abs(p.Now().Seconds()-0.25) > 1e-6 {
			t.Errorf("took %v, want 250ms", p.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoEqualTasksShareFairly(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	a := h.NewTask("a")
	b := h.NewTask("b")
	var aDone, bDone simcore.Time
	eng.Spawn("a", func(p *simcore.Proc) {
		a.Compute(p, 100e6) // 1s alone
		aDone = p.Now()
	})
	eng.Spawn("b", func(p *simcore.Proc) {
		b.Compute(p, 100e6)
		bDone = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Both finish near 2s (perfect sharing), within a quantum or two.
	for _, d := range []simcore.Time{aDone, bDone} {
		if d.Seconds() < 1.9 || d.Seconds() > 2.1 {
			t.Fatalf("finish times a=%v b=%v, want ≈2s", aDone, bDone)
		}
	}
}

func TestBusyLoopDoesNotStarveJob(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	h.StartCompetitor("hog")
	job := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		job.Compute(p, 100e6) // 1s alone → ~2s sharing with hog
		done = p.Now()
	})
	eng.Spawn("stop", func(p *simcore.Proc) {
		p.Sleep(10 * simcore.Second)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("job never finished against busy loop")
	}
	if done.Seconds() < 1.8 || done.Seconds() > 2.3 {
		t.Fatalf("job finished at %v, want ≈2s", done)
	}
}

func TestStopContMechanics(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	job := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		job.Compute(p, 100e6) // 1s of work
		done = p.Now()
	})
	eng.Spawn("ctl", func(p *simcore.Proc) {
		p.Sleep(500 * simcore.Millisecond)
		job.Stop()
		p.Sleep(2 * simcore.Second) // job frozen for 2s
		job.Cont()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(done.Seconds()-3.0) > 0.01 {
		t.Fatalf("done at %v, want ≈3s (0.5 run + 2 stopped + 0.5 run)", done)
	}
}

func TestStopWhileRunningEndsSlice(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	job := h.NewTask("job")
	eng.Spawn("job", func(p *simcore.Proc) {
		job.Compute(p, 100e6)
	})
	eng.Spawn("ctl", func(p *simcore.Proc) {
		p.Sleep(3 * simcore.Millisecond) // mid-slice
		job.Stop()
		used := job.UsedCPU()
		if math.Abs(used.Seconds()-0.003) > 1e-6 {
			t.Errorf("UsedCPU after mid-slice stop = %v, want 3ms", used)
		}
		job.Cont()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTaskPreempts(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	hog := h.NewTask("hog")
	hog.SetBusyLoop(true)
	kern := h.NewTask("kern")
	kern.Kernel = true
	var kdone simcore.Time
	eng.Spawn("k", func(p *simcore.Proc) {
		p.Sleep(2 * simcore.Millisecond) // hog mid-slice
		kern.Compute(p, 100e3)           // 1ms of kernel work
		kdone = p.Now()
	})
	eng.Spawn("stop", func(p *simcore.Proc) {
		p.Sleep(50 * simcore.Millisecond)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Kernel work preempts immediately: done at 2ms + 1ms.
	if math.Abs(kdone.Seconds()-0.003) > 1e-6 {
		t.Fatalf("kernel work done at %v, want 3ms", kdone)
	}
}

func TestUtilization(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	task := h.NewTask("t")
	eng.Spawn("p", func(p *simcore.Proc) {
		task.ComputeSeconds(p, 1)
		p.Sleep(simcore.Second) // idle second
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if u := h.Utilization(); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestIOCompetitorRunsForever(t *testing.T) {
	eng := simcore.NewEngine(3)
	h := NewHost(eng, "h", 533, 0)
	StartIOCompetitor(h, "io")
	job := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		job.ComputeSeconds(p, 1)
		done = p.Now()
	})
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(5 * simcore.Second)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// IO competitor uses ~10-20% CPU; job should finish in 1.0–1.5s.
	if done == 0 || done.Seconds() > 1.5 {
		t.Fatalf("job done at %v", done)
	}
}

func TestNewHostValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero speed")
		}
	}()
	NewHost(simcore.NewEngine(1), "h", 0, 0)
}

// Property: CPU time is conserved — total UsedCPU across tasks never
// exceeds elapsed wall time, and a lone task's compute time is exact.
func TestPropertyCPUConservation(t *testing.T) {
	f := func(workUnits []uint8) bool {
		if len(workUnits) == 0 || len(workUnits) > 6 {
			return true
		}
		eng := simcore.NewEngine(5)
		h := NewHost(eng, "h", 100, 0)
		tasks := make([]*Task, len(workUnits))
		for i, w := range workUnits {
			tasks[i] = h.NewTask("t")
			ops := float64(int(w)%50+1) * 1e6
			task := tasks[i]
			eng.Spawn("p", func(p *simcore.Proc) { task.Compute(p, ops) })
		}
		if err := eng.Run(); err != nil {
			return false
		}
		var total simcore.Duration
		for _, task := range tasks {
			total += task.UsedCPU()
		}
		elapsed := simcore.Duration(eng.Now())
		// Conservation within a microsecond of rounding slack.
		return total <= elapsed+simcore.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A competitor whose busy loop ends while it holds the CPU must hand the
// CPU on: SetBusyLoop(false) ends the slice and reschedules, so the other
// task gets the CPU back and finishes. Without the reschedule the host
// was left with no current task and never marked idle, and the job
// waited forever.
func TestBusyLoopEndWhileRunningReschedules(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 100, 0)
	job := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		job.Compute(p, 100e6) // 1s alone
		done = p.Now()
	})
	var comp *Task
	eng.After(33*simcore.Millisecond, func() { comp = h.StartCompetitor("load") })
	// End the load at the first millisecond tick after 156ms at which the
	// competitor holds the CPU.
	var poll func()
	poll = func() {
		if eng.Now() > simcore.Time(simcore.Second) {
			t.Error("the competitor never held the CPU after 156ms")
			comp.SetBusyLoop(false)
			return
		}
		if eng.Now() >= simcore.Time(156*simcore.Millisecond) && h.current == comp {
			comp.SetBusyLoop(false)
			return
		}
		eng.After(simcore.Millisecond, poll)
	}
	eng.After(simcore.Millisecond, poll)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("job never finished")
	}
	want := simcore.Time(simcore.Second + comp.UsedCPU())
	if d := done - want; d < -simcore.Time(simcore.Microsecond) || d > simcore.Time(simcore.Microsecond) {
		t.Errorf("job done at %v, want %v (1s plus the competitor's %v)", done, want, comp.UsedCPU())
	}
	if h.current != nil || !h.idle {
		t.Errorf("host not idle after all work: current=%v idle=%v", h.current, h.idle)
	}
}

// TestQuantumZeroAlloc pins one 1 ms quantum with four runnable tasks at
// zero heap allocations: the slice-end event comes from the host's pool.
func TestQuantumZeroAlloc(t *testing.T) {
	eng := simcore.NewEngine(1)
	h := NewHost(eng, "h", 533, simcore.Millisecond)
	for _, name := range []string{"t0", "t1", "t2", "t3"} {
		h.NewTask(name).SetBusyLoop(true)
	}
	step := func() {
		if err := eng.RunUntil(eng.Now().Add(simcore.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("one quantum: %v allocs, want 0", allocs)
	}
	if got := h.Utilization(); got != 1 {
		t.Errorf("utilization = %v, want 1", got)
	}
}
