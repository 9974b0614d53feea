package netsim

import (
	"testing"

	"microgrid/internal/simcore"
)

func TestLinkDownDropsTraffic(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	link := nw.Links()[0]
	delivered := 0
	b.HandleDatagrams(7, func(_ Addr, _ Port, _ int, _ any) { delivered++ })
	eng.Spawn("sender", func(p *simcore.Proc) {
		_ = a.SendDatagram(b.Addr, 1, 7, 100, nil) // arrives
		p.Sleep(10 * simcore.Millisecond)
		link.SetDown(true)
		if !link.Down() {
			t.Error("Down() false after SetDown")
		}
		if err := a.SendDatagram(b.Addr, 1, 7, 100, nil); err == nil {
			t.Error("send over downed single-path network should fail routing")
		}
		p.Sleep(10 * simcore.Millisecond)
		link.SetDown(false)
		_ = a.SendDatagram(b.Addr, 1, 7, 100, nil) // arrives again
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
}

func TestLinkFailureLosesInFlight(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 1e6, Delay: 50 * simcore.Millisecond})
	link := nw.Links()[0]
	delivered := 0
	b.HandleDatagrams(7, func(_ Addr, _ Port, _ int, _ any) { delivered++ })
	eng.Spawn("sender", func(p *simcore.Proc) {
		// Packet takes ~1.1ms serialization + 50ms propagation; kill the
		// link while it is propagating.
		_ = a.SendDatagram(b.Addr, 1, 7, 100, nil)
		p.Sleep(20 * simcore.Millisecond)
		link.SetDown(true)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("in-flight packet survived the failure")
	}
}

func TestFailoverToBackupPath(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	r1 := nw.AddRouter("fast")
	r2 := nw.AddRouter("slow")
	fast := LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond}
	slow := LinkConfig{BandwidthBps: 100e6, Delay: 20 * simcore.Millisecond}
	primary := nw.Connect(a, r1, fast)
	nw.Connect(r1, b, fast)
	nw.Connect(a, r2, slow)
	nw.Connect(r2, b, slow)
	nw.ComputeRoutes()

	d, _, _ := nw.PathDelay(a, b)
	if d != 2*simcore.Millisecond {
		t.Fatalf("primary path delay = %v", d)
	}
	primary.SetDown(true)
	d, _, ok := nw.PathDelay(a, b)
	if !ok || d != 40*simcore.Millisecond {
		t.Fatalf("failover path delay = %v ok=%v", d, ok)
	}
	primary.SetDown(false)
	d, _, _ = nw.PathDelay(a, b)
	if d != 2*simcore.Millisecond {
		t.Fatalf("restored path delay = %v", d)
	}
}

// TestTCPSurvivesTransientFailure: the reliable transport retransmits
// through a brief outage when a backup path exists.
func TestTCPSurvivesTransientFailure(t *testing.T) {
	eng := simcore.NewEngine(4)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	cfg := LinkConfig{BandwidthBps: 10e6, Delay: 2 * simcore.Millisecond}
	primary := nw.Connect(a, r1, cfg)
	nw.Connect(r1, b, cfg)
	backup := LinkConfig{BandwidthBps: 10e6, Delay: 10 * simcore.Millisecond}
	nw.Connect(a, r2, backup)
	nw.Connect(r2, b, backup)
	nw.ComputeRoutes()
	// Outage of the primary from 50ms to 250ms.
	eng.At(simcore.Time(50*simcore.Millisecond), func() { primary.SetDown(true) })
	eng.At(simcore.Time(250*simcore.Millisecond), func() { primary.SetDown(false) })

	ln, _ := b.Listen(80)
	const n = 50
	received := 0
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if m.Payload.(int) != i {
				t.Errorf("out of order at %d: %v", i, m.Payload)
				return
			}
			received++
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := c.Send(p, 4000, i); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(5 * simcore.Millisecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if received != n {
		t.Fatalf("received %d/%d through the outage", received, n)
	}
}
