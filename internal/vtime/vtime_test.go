package vtime

import (
	"math"
	"testing"
	"testing/quick"

	"microgrid/internal/simcore"
)

func TestResourceRatePaperExample(t *testing.T) {
	// Paper footnote 4: physical CPU 100 MIPS, virtual 200 MIPS → SR = 0.5.
	r := ResourceRate{Resource: "vm0", Kind: "cpu", Physical: 100, Virtual: 200}
	if r.Rate() != 0.5 {
		t.Fatalf("Rate = %v, want 0.5", r.Rate())
	}
}

func TestMaxFeasibleRate(t *testing.T) {
	rates := []ResourceRate{
		{Resource: "vm0", Kind: "cpu", Physical: 533, Virtual: 533},       // 1.0
		{Resource: "vm1", Kind: "cpu", Physical: 533, Virtual: 2132},      // 0.25
		{Resource: "lan", Kind: "bandwidth", Physical: 100, Virtual: 100}, // 1.0
	}
	rate, limiting := MaxFeasibleRate(rates)
	if rate != 0.25 {
		t.Fatalf("rate = %v, want 0.25", rate)
	}
	if limiting.Resource != "vm1" {
		t.Fatalf("limiting = %v", limiting)
	}
}

func TestMaxFeasibleRateEmpty(t *testing.T) {
	rate, _ := MaxFeasibleRate(nil)
	if rate != 1 {
		t.Fatalf("rate = %v, want 1", rate)
	}
}

func TestResourceRateZeroVirtualPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero virtual spec")
		}
	}()
	_ = ResourceRate{Virtual: 0, Physical: 1}.Rate()
}

func TestClockScaling(t *testing.T) {
	e := simcore.NewEngine(1)
	c := NewClock(e, 0.04) // paper §3.6: MicroGrid at 4% CPU → rate 0.04
	e.Spawn("p", func(p *simcore.Proc) {
		p.Sleep(25 * simcore.Second)
		// 25 physical seconds at rate 0.04 = 1 virtual second.
		if got := c.Gettimeofday(); got != simcore.Time(simcore.Second) {
			t.Errorf("virtual time = %v, want 1s", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClockOriginOffset(t *testing.T) {
	e := simcore.NewEngine(1)
	var c *Clock
	e.Spawn("p", func(p *simcore.Proc) {
		p.Sleep(10 * simcore.Second)
		c = NewClock(e, 0.5) // anchored at t=10s
		p.Sleep(4 * simcore.Second)
		if got := c.Gettimeofday(); got != simcore.Time(2*simcore.Second) {
			t.Errorf("virtual time = %v, want 2s", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepVirtual(t *testing.T) {
	e := simcore.NewEngine(1)
	c := NewClock(e, 0.1)
	e.Spawn("p", func(p *simcore.Proc) {
		c.SleepVirtual(p, simcore.Second)
		if p.Now() != simcore.Time(10*simcore.Second) {
			t.Errorf("physical time = %v, want 10s", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewClockInvalidRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rate 0")
		}
	}()
	NewClock(simcore.NewEngine(1), 0)
}

// Property: ToPhysical inverts the clock within rounding: after
// ToPhysical(d) of engine time, Gettimeofday reads d, for any positive
// rate and duration.
func TestPropertyConversionRoundTrip(t *testing.T) {
	f := func(ms uint16, rateMilli uint16) bool {
		rate := float64(rateMilli%5000+1) / 1000.0 // 0.001..5.0
		e := simcore.NewEngine(1)
		c := NewClock(e, rate)
		d := simcore.Duration(ms) * simcore.Millisecond
		var back simcore.Time
		e.After(c.ToPhysical(d), func() { back = c.Gettimeofday() })
		if err := e.Run(); err != nil {
			return false
		}
		return math.Abs(float64(back)-float64(d)) <= math.Ceil(rate)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the feasible rate never exceeds any individual resource rate.
func TestPropertyFeasibleRateIsLowerBound(t *testing.T) {
	f := func(specs []uint8) bool {
		var rates []ResourceRate
		for i, s := range specs {
			rates = append(rates, ResourceRate{
				Resource: "r", Kind: "cpu",
				Physical: float64(i%7 + 1),
				Virtual:  float64(s%13 + 1),
			})
		}
		rate, _ := MaxFeasibleRate(rates)
		for _, r := range rates {
			if rate > r.Rate() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
