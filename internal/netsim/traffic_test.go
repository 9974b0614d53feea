package netsim

import (
	"math"
	"testing"

	"microgrid/internal/simcore"
)

func TestCBRRate(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond})
	got, bytes := CountingSink(b, 7)
	gen, err := StartCBR(a, b, 7, 8e6, 1000) // 8 Mb/s of 1000B packets = 1000 pkt/s
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(2 * simcore.Second)
		gen.Stop()
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(*got)-2000) > 5 {
		t.Fatalf("delivered %d packets, want ≈2000", *got)
	}
	if *bytes != *got*1000 {
		t.Fatalf("bytes = %d", *bytes)
	}
	if sent := nw.Links()[0].Stats()[0].Sent; sent < 1995 {
		t.Fatalf("a->b sent %d packets, want ≥1995", sent)
	}
}

func TestTrafficValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 1e6, Delay: simcore.Millisecond})
	if _, err := StartCBR(a, b, 7, 0, 100); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := StartCBR(a, b, 7, 1e6, 0); err == nil {
		t.Fatal("zero packet size accepted")
	}
}

// TestCrossTrafficDegradesTCP: background CBR load on the shared link
// reduces a bulk TCP transfer's throughput roughly by the load share.
func TestCrossTrafficDegradesTCP(t *testing.T) {
	transfer := func(loadBps float64) float64 {
		eng := simcore.NewEngine(9)
		nw := New(eng)
		a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
		b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
		x := nw.AddHost("x", MustParseAddr("10.0.0.3"))
		r := nw.AddRouter("r")
		edge := LinkConfig{BandwidthBps: 100e6, Delay: 100 * simcore.Microsecond}
		nw.Connect(a, r, edge)
		nw.Connect(x, r, edge)
		// Shared bottleneck toward b.
		nw.Connect(r, b, LinkConfig{BandwidthBps: 10e6, Delay: 100 * simcore.Microsecond})
		nw.ComputeRoutes()
		if loadBps > 0 {
			CountingSink(b, 99)
			if _, err := StartCBR(x, b, 99, loadBps, 1000); err != nil {
				t.Fatal(err)
			}
		}
		ln, _ := b.Listen(80)
		const total = 2 * 1024 * 1024
		var done simcore.Time
		eng.Spawn("server", func(p *simcore.Proc) {
			c, err := ln.Accept(p)
			if err != nil {
				return
			}
			gotBytes := 0
			for gotBytes < total {
				m, err := c.Recv(p)
				if err != nil {
					return
				}
				gotBytes += m.Size
			}
			done = p.Now()
			eng.Stop()
		})
		eng.Spawn("client", func(p *simcore.Proc) {
			c, err := a.Dial(p, b.Addr, 80)
			if err != nil {
				return
			}
			for sent := 0; sent < total; sent += 64 * 1024 {
				if err := c.Send(p, 64*1024, nil); err != nil {
					return
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if done == 0 {
			t.Fatal("transfer did not finish")
		}
		return float64(total) * 8 / done.Seconds()
	}
	clean := transfer(0)
	loaded := transfer(5e6) // half the bottleneck consumed by CBR
	if clean < 8e6 {
		t.Fatalf("clean throughput %.1f Mb/s too low", clean/1e6)
	}
	if loaded > 0.75*clean {
		t.Fatalf("cross traffic had too little effect: %.1f vs %.1f Mb/s", loaded/1e6, clean/1e6)
	}
	if loaded < 0.2*clean {
		t.Fatalf("cross traffic starved TCP: %.1f vs %.1f Mb/s", loaded/1e6, clean/1e6)
	}
}
