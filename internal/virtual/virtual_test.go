package virtual

import (
	"math"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// directGrid builds a 2-host direct-mode grid at 533 MIPS on 100 Mb
// Ethernet.
func directGrid(t *testing.T, eng *simcore.Engine) *Grid {
	t.Helper()
	g, err := NewLANGrid(eng, "vm", 2, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// emuGrid builds a 2-host emulated grid: virtual 533 MIPS on physical
// 533 MIPS at the given rate.
func emuGrid(t *testing.T, eng *simcore.Engine, rate float64) *Grid {
	t.Helper()
	g, err := NewLANGrid(eng, "vm", 2, 533, 533, 100e6, 25*simcore.Microsecond, rate, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGethostnameAndResolve(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := directGrid(t, eng)
	var name string
	h := g.Host("vm0")
	if h == nil {
		t.Fatal("vm0 missing")
	}
	if _, err := h.Spawn("app", func(p *Process) {
		name = p.Gethostname()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if name != "vm0" {
		t.Fatalf("hostname = %q", name)
	}
	a, err := g.Resolve("vm1")
	if err != nil || a.String() != "1.11.11.2" {
		t.Fatalf("Resolve vm1 = %v, %v", a, err)
	}
	if _, err := g.Resolve("1.11.11.1"); err != nil {
		t.Fatalf("Resolve by IP failed: %v", err)
	}
	if _, err := g.Resolve("nosuch"); err == nil {
		t.Fatal("unknown host resolved")
	}
}

func TestDirectComputeFullSpeed(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := directGrid(t, eng)
	var vElapsed simcore.Time
	h := g.Host("vm0")
	if _, err := h.Spawn("app", func(p *Process) {
		p.ComputeVirtualSeconds(2)
		vElapsed = p.Gettimeofday()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(vElapsed.Seconds()-2) > 1e-6 {
		t.Fatalf("virtual elapsed = %v, want 2s", vElapsed)
	}
}

func TestEmulatedComputeMatchesVirtualTime(t *testing.T) {
	// At rate 0.25 a 1-virtual-second computation takes ~4 physical
	// seconds, but the application perceives ~1 second.
	eng := simcore.NewEngine(1)
	g := emuGrid(t, eng, 0.25)
	var vElapsed, pElapsed simcore.Time
	h := g.Host("vm0")
	if _, err := h.Spawn("app", func(p *Process) {
		p.ComputeVirtualSeconds(1)
		vElapsed = p.Gettimeofday()
		pElapsed = p.Proc().Now()
		g.StopControllers()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(vElapsed.Seconds()-1) > 0.08 {
		t.Fatalf("virtual elapsed = %v, want ≈1s", vElapsed)
	}
	if math.Abs(pElapsed.Seconds()-4) > 0.3 {
		t.Fatalf("physical elapsed = %v, want ≈4s", pElapsed)
	}
}

func TestFeasibleRateAutoComputed(t *testing.T) {
	eng := simcore.NewEngine(1)
	// Virtual 2132 MIPS on physical 533 → rate 0.25.
	g, err := NewLANGrid(eng, "vm", 2, 2132, 533, 100e6, 25*simcore.Microsecond, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Rate()-0.25) > 1e-9 {
		t.Fatalf("rate = %v, want 0.25", g.Rate())
	}
	// Virtual slower than physical → rate clamps to 1.
	g2, err := NewLANGrid(eng, "xm", 2, 100, 533, 100e6, 25*simcore.Microsecond, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Rate() != 1 {
		t.Fatalf("rate = %v, want 1", g2.Rate())
	}
}

func TestInfeasibleRateRejected(t *testing.T) {
	eng := simcore.NewEngine(1)
	// Requesting rate 1 with virtual 2× physical is infeasible.
	if _, err := NewLANGrid(eng, "vm", 1, 1066, 533, 100e6, 25*simcore.Microsecond, 1, false, 0); err == nil {
		t.Fatal("infeasible rate accepted")
	}
}

func TestDirectModeSpeedCheck(t *testing.T) {
	eng := simcore.NewEngine(1)
	if _, err := NewLANGrid(eng, "vm", 1, 1066, 533, 100e6, 25*simcore.Microsecond, 0, true, 0); err == nil {
		t.Fatal("direct mode with too-fast virtual host accepted")
	}
}

func TestVirtualSockets(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := directGrid(t, eng)
	var got netsim.Message
	if _, err := g.Host("vm1").SpawnDaemon("server", func(p *Process) {
		ln, err := p.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := ln.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		got, err = c.Recv()
		if err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Host("vm0").Spawn("client", func(p *Process) {
		p.Sleep(simcore.Millisecond)
		c, err := p.Dial("vm1", 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(1234, "hello"); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Size != 1234 || got.Payload.(string) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

func TestDialUnknownHost(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := directGrid(t, eng)
	if _, err := g.Host("vm0").Spawn("c", func(p *Process) {
		if _, err := p.Dial("ghost", 80); err == nil {
			t.Error("dial to unknown virtual host succeeded")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEmulatedNetworkDeliversAtVirtualTime(t *testing.T) {
	// A 1-byte ping across the LAN (two 25 µs hops) should take the same
	// *virtual* time at rate 1 (direct) and rate 0.25 (emulated), within
	// scheduler quantization.
	measure := func(rate float64, direct bool) float64 {
		eng := simcore.NewEngine(1)
		var g *Grid
		var err error
		if direct {
			g = directGrid(t, eng)
		} else {
			g = emuGrid(t, eng, rate)
		}
		if err != nil {
			t.Fatal(err)
		}
		var sent, got simcore.Time
		_, err = g.Host("vm1").SpawnDaemon("server", func(p *Process) {
			ln, _ := p.Listen(80)
			c, err := ln.Accept(p)
			if err != nil {
				return
			}
			if _, err := c.Recv(); err == nil {
				got = p.Gettimeofday()
			}
			g.StopControllers()
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = g.Host("vm0").Spawn("client", func(p *Process) {
			c, err := p.Dial("vm1", 80)
			if err != nil {
				t.Error(err)
				return
			}
			sent = p.Gettimeofday()
			_ = c.Send(1000, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got.Sub(sent).Seconds()
	}
	ref := measure(1, true)
	emu := measure(0.25, false)
	if ref <= 0 || emu <= 0 {
		t.Fatalf("ref=%v emu=%v", ref, emu)
	}
	// Emulated one-way time matches the reference in virtual units within
	// a few quanta of scheduling noise (quantum 10ms × rate 0.25 = 2.5ms
	// virtual worst case per sync point; typical much less).
	if diff := math.Abs(emu - ref); diff > 0.006 {
		t.Fatalf("one-way: direct %.6fs vs emulated %.6fs (diff %.6fs)", ref, emu, diff)
	}
}

func TestMallocAgainstHostLimit(t *testing.T) {
	eng := simcore.NewEngine(1)
	cfg := Config{
		Direct: true,
		Hosts: []HostConfig{{
			Name: "vm0", IP: netsim.MustParseAddr("1.11.11.1"),
			CPUSpeedMIPS: 100, MemoryBytes: 64 * 1024, MappedPhysical: "p0",
		}},
		Phys: []PhysConfig{{Name: "p0", CPUSpeedMIPS: 100}},
	}
	g, err := NewGrid(eng, cfg, LANWire(cfg.Hosts, 100e6, simcore.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Host("vm0").Spawn("app", func(p *Process) {
		if err := p.Malloc(32 * 1024); err != nil {
			t.Errorf("first alloc: %v", err)
		}
		if err := p.Malloc(64 * 1024); err == nil {
			t.Error("over-limit alloc succeeded")
		}
		if used := p.mem.Used(); used != 32*1024+1024 {
			t.Errorf("charge after a refused alloc = %d", used)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFailsWhenOutOfMemory(t *testing.T) {
	eng := simcore.NewEngine(1)
	cfg := Config{
		Direct: true,
		Hosts: []HostConfig{{
			Name: "vm0", IP: netsim.MustParseAddr("1.11.11.1"),
			CPUSpeedMIPS: 100, MemoryBytes: 512, MappedPhysical: "p0",
		}},
		Phys: []PhysConfig{{Name: "p0", CPUSpeedMIPS: 100}},
	}
	g, err := NewGrid(eng, cfg, LANWire(cfg.Hosts, 100e6, simcore.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Host("vm0").Spawn("app", func(p *Process) {}); err == nil {
		t.Fatal("spawn on 512-byte host succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	if _, err := NewGrid(eng, Config{}, nil); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := Config{
		Hosts: []HostConfig{{Name: "a", IP: 1, CPUSpeedMIPS: 10, MappedPhysical: "nope"}},
	}
	if _, err := NewGrid(eng, cfg, LANWire(cfg.Hosts, 1e6, 0)); err == nil {
		t.Fatal("unknown physical mapping accepted")
	}
}

func TestTwoProcessesShareVirtualCPU(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := directGrid(t, eng)
	h := g.Host("vm0")
	var d1, d2 simcore.Time
	if _, err := h.Spawn("a", func(p *Process) {
		p.ComputeVirtualSeconds(1)
		d1 = p.Gettimeofday()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Spawn("b", func(p *Process) {
		p.ComputeVirtualSeconds(1)
		d2 = p.Gettimeofday()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialized on one virtual CPU: total 2 virtual seconds.
	last := d1
	if d2 > last {
		last = d2
	}
	if math.Abs(last.Seconds()-2) > 0.01 {
		t.Fatalf("two 1s jobs finished at %v, want 2s", last)
	}
}

func TestScaleLink(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := emuGrid(t, eng, 0.5)
	in := netsim.LinkConfig{BandwidthBps: 100e6, Delay: 10 * simcore.Millisecond}
	out := g.ScaleLink(in)
	if out.BandwidthBps != 50e6 || out.Delay != 20*simcore.Millisecond {
		t.Fatalf("scaled = %+v", out)
	}
	gd := directGrid(t, simcore.NewEngine(2))
	if gd.ScaleLink(in) != in {
		t.Fatal("direct mode scaled the link")
	}
}
