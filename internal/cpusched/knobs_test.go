package cpusched

import (
	"testing"

	"microgrid/internal/metrics"
	"microgrid/internal/simcore"
)

// quantaDevs measures the normalized quanta-size deviation of the
// scheduler daemon for a given host/daemon configuration.
func quantaDevs(t *testing.T, preempt simcore.Duration, jitter float64, competition string) float64 {
	t.Helper()
	eng := simcore.NewEngine(7)
	h := NewHost(eng, "h", 533, 0)
	h.PreemptLatencyMax = preempt
	switch competition {
	case "cpu":
		h.StartCompetitor("hog")
	case "io":
		StartIOCompetitor(h, "io")
	}
	// An inactive job, as in Fig. 7: the daemon cycles without demand.
	task := h.NewTask("inactive")
	mc := NewMultiController(h)
	mc.DispatchJitter = jitter
	job, err := mc.AddJob(task, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var lengths []float64
	job.OnQuantum = func(_ simcore.Time, l simcore.Duration) {
		lengths = append(lengths, l.Seconds())
	}
	mc.Spawn()
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(20 * simcore.Second)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lengths) < 100 {
		t.Fatalf("only %d quanta", len(lengths))
	}
	return metrics.StdDev(metrics.Normalize(lengths))
}

func TestDispatchJitterWidensDistribution(t *testing.T) {
	clean := quantaDevs(t, 0, 0, "none")
	noisy := quantaDevs(t, 0, 0.25, "none")
	if noisy <= clean {
		t.Fatalf("jitter did not widen: clean=%v noisy=%v", clean, noisy)
	}
	if noisy > 0.01 {
		t.Fatalf("jitter implausibly wide: %v", noisy)
	}
}

func TestPreemptLatencyWidensUnderCompetition(t *testing.T) {
	instant := quantaDevs(t, 0, 0, "cpu")
	delayed := quantaDevs(t, 300*simcore.Microsecond, 0, "cpu")
	if delayed <= instant {
		t.Fatalf("preempt latency did not widen: instant=%v delayed=%v", instant, delayed)
	}
}

func TestCompetitionOrderingOfDeviations(t *testing.T) {
	// With the Fig. 7 settings, deviations order none < cpu < io, as in
	// the paper.
	none := quantaDevs(t, 300*simcore.Microsecond, 0.25, "none")
	cpu := quantaDevs(t, 300*simcore.Microsecond, 0.25, "cpu")
	io := quantaDevs(t, 300*simcore.Microsecond, 0.25, "io")
	if !(none < cpu && cpu < io) {
		t.Fatalf("ordering violated: none=%v cpu=%v io=%v", none, cpu, io)
	}
}

func TestPreemptLatencyStillCompletesWork(t *testing.T) {
	// Preemption latency must delay, not lose, preemptions.
	eng := simcore.NewEngine(2)
	h := NewHost(eng, "h", 100, 0)
	h.PreemptLatencyMax = 500 * simcore.Microsecond
	hog := h.NewTask("hog")
	hog.SetBusyLoop(true)
	job := h.NewTask("job")
	var done simcore.Time
	eng.Spawn("job", func(p *simcore.Proc) {
		p.Sleep(5 * simcore.Millisecond)
		job.Compute(p, 100e6) // 1s alone → ~2s shared
		done = p.Now()
	})
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(5 * simcore.Second)
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 || done.Seconds() > 2.5 {
		t.Fatalf("job done at %v", done)
	}
}
