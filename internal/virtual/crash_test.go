package virtual

import (
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// crashGrid builds a 2-host direct-mode grid on dedicated machines.
func crashGrid(t *testing.T, eng *simcore.Engine) *Grid {
	t.Helper()
	cfg := Config{
		Direct: true,
		Hosts: []HostConfig{
			{Name: "vm0", IP: netsim.MustParseAddr("1.11.11.1"), CPUSpeedMIPS: 533, MappedPhysical: "p0"},
			{Name: "vm1", IP: netsim.MustParseAddr("1.11.11.2"), CPUSpeedMIPS: 533, MappedPhysical: "p1"},
		},
		Phys: []PhysConfig{
			{Name: "p0", CPUSpeedMIPS: 533},
			{Name: "p1", CPUSpeedMIPS: 533},
		},
	}
	g, err := NewGrid(eng, cfg, LANWire(cfg.Hosts, 100e6, 25*simcore.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Crash kills resident processes (mid-Compute included), releases their
// memory, and Reboot lets fresh ones spawn.
func TestHostCrashKillsProcessesAndReboot(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := crashGrid(t, eng)
	h := g.Host("vm1")

	var finished, hooked, rebootHooked bool
	g.OnCrash = func(ch *Host) { hooked = ch == h }
	g.OnReboot = func(ch *Host) { rebootHooked = ch == h }
	if _, err := h.Spawn("app", func(p *Process) {
		if err := p.Malloc(1 << 20); err != nil {
			t.Errorf("malloc: %v", err)
		}
		p.ComputeVirtualSeconds(10)
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	eng.After(1*simcore.Second, func() {
		h.Crash()
		if !h.Down() {
			t.Error("host not down after Crash")
		}
		if _, err := h.Spawn("too-late", func(p *Process) {}); err == nil {
			t.Error("Spawn on a down host succeeded")
		}
	})
	var reborn bool
	eng.After(2*simcore.Second, func() {
		if err := h.Reboot(); err != nil {
			t.Errorf("reboot: %v", err)
			return
		}
		if _, err := h.Spawn("fresh", func(p *Process) { reborn = true }); err != nil {
			t.Errorf("spawn after reboot: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if finished {
		t.Error("killed process ran to completion")
	}
	if !hooked || !rebootHooked {
		t.Errorf("hooks: OnCrash=%v OnReboot=%v, want both", hooked, rebootHooked)
	}
	if !reborn {
		t.Error("post-reboot process did not run")
	}
	if used := h.Mem.Used(); used != 0 {
		t.Errorf("host memory still charged after crash: %d bytes", used)
	}
	if len(h.procs) != 0 {
		t.Errorf("%d processes still registered", len(h.procs))
	}
}

// A crash mid-RPC: the surviving peer detects the failure in bounded
// virtual time — RecvTimeout expires, and sends abort once
// retransmission gives up — rather than hanging forever.
func TestHostCrashUnblocksPeer(t *testing.T) {
	eng := simcore.NewEngine(1)
	g := crashGrid(t, eng)
	server, client := g.Host("vm1"), g.Host("vm0")

	if _, err := server.SpawnDaemon("server", func(p *Process) {
		ln, err := p.Listen(7000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		_, _ = c.Recv() // parked here when the crash lands
		_, _ = c.Recv()
	}); err != nil {
		t.Fatal(err)
	}
	var timedOut bool
	var sendErr error
	var at simcore.Time
	if _, err := client.Spawn("client", func(p *Process) {
		c, err := p.Dial("vm1", 7000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(100, "hello"); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		// Server will never answer: it crashes mid-request.
		_, timedOut, _ = c.RecvTimeout(2 * simcore.Second)
		// Retrying the request hits bounded retransmission and aborts;
		// large messages fill the send buffer so the sender blocks until
		// the transport declares the peer dead.
		for i := 0; i < 100 && sendErr == nil; i++ {
			sendErr = c.Send(64*1024, "retry")
		}
		at = p.Proc().Now()
	}); err != nil {
		t.Fatal(err)
	}
	eng.After(500*simcore.Millisecond, func() { server.Crash() })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut {
		t.Error("RecvTimeout did not expire after server crash")
	}
	if sendErr == nil {
		t.Fatal("sends to a crashed host never failed")
	}
	if at > simcore.Time(600*simcore.Second) {
		t.Errorf("failure detected only at %v", at)
	}
}
