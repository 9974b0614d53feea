package autopilot

import (
	"math"
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/vtime"
)

func TestSensorOps(t *testing.T) {
	s := &Sensor{}
	s.Set(5)
	s.Set(7)
	if s.Value() != 7 {
		t.Fatalf("value = %v, want 7", s.Value())
	}
}

func TestCollectorSampling(t *testing.T) {
	eng := simcore.NewEngine(1)
	clock := vtime.NewClock(eng, 1)
	col := NewCollector(eng, clock)
	s := col.Register("counter")
	if col.Register("counter") != s {
		t.Fatal("re-register returned a new sensor")
	}
	if err := col.Start(simcore.Second); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("app", func(p *simcore.Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(simcore.Second)
			s.Set(float64(i * 10))
		}
		p.Sleep(500 * simcore.Millisecond)
		col.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr := col.Trace("counter")
	if len(tr) != 5 {
		t.Fatalf("samples = %d: %v", len(tr), tr)
	}
	// Sample i fires at i seconds; the app updates at the same instants
	// but after the sampler tick ordering is deterministic: the app's
	// sleep was scheduled first, so its update lands first and the sample
	// sees it.
	for i, smp := range tr {
		if smp.T != simcore.Time(i+1)*simcore.Time(simcore.Second) {
			t.Fatalf("sample %d at %v", i, smp.T)
		}
	}
}

func TestCollectorVirtualCadence(t *testing.T) {
	// At rate 0.04 (the paper's Fig. 17 setting), sampling every 1
	// virtual second means every 25 physical seconds.
	eng := simcore.NewEngine(1)
	clock := vtime.NewClock(eng, 0.04)
	col := NewCollector(eng, clock)
	col.Register("c")
	if err := col.Start(simcore.Second); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("stopper", func(p *simcore.Proc) {
		p.Sleep(80 * simcore.Second) // physical
		col.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tr := col.Trace("c")
	if len(tr) != 3 { // ticks at 25s, 50s, 75s physical
		t.Fatalf("samples = %d", len(tr))
	}
	if tr[0].T != simcore.Time(simcore.Second) {
		t.Fatalf("first sample at virtual %v", tr[0].T)
	}
}

func TestStartValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	col := NewCollector(eng, vtime.NewClock(eng, 1))
	if err := col.Start(0); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := col.Start(simcore.Second); err != nil {
		t.Fatal(err)
	}
	if err := col.Start(simcore.Second); err == nil {
		t.Fatal("double start accepted")
	}
	col.Stop()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	eng := simcore.NewEngine(1)
	col := NewCollector(eng, vtime.NewClock(eng, 1))
	col.Register("b")
	col.Register("a")
	names := col.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestSkew(t *testing.T) {
	phys := []Sample{{1, 10}, {2, 20}, {3, 30}}
	mg := []Sample{{1, 11}, {2, 20}, {3, 27}}
	skew, n, err := Skew(mg, phys)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	want := math.Sqrt((100.0 + 0 + 100.0) / 3)
	if math.Abs(skew-want) > 1e-9 {
		t.Fatalf("skew = %v, want %v", skew, want)
	}
	// Unequal lengths compare the common prefix.
	skew, n, err = Skew(mg[:2], phys)
	if err != nil || n != 2 {
		t.Fatalf("prefix n=%d err=%v", n, err)
	}
	if _, _, err := Skew(nil, phys); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestIdenticalTracesZeroSkew(t *testing.T) {
	tr := []Sample{{1, 5}, {2, 6}, {3, 7}}
	skew, _, err := Skew(tr, tr)
	if err != nil || skew != 0 {
		t.Fatalf("skew = %v err=%v", skew, err)
	}
}
