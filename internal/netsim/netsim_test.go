package netsim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"microgrid/internal/simcore"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("1.11.11.2")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "1.11.11.2" {
		t.Fatalf("round trip = %q", a.String())
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

// TestParseAddrAcceptSet pins ParseAddr's accept/reject set octet by
// octet: an optional sign, at least one decimal digit, a value in
// 0..255, exactly four dot-separated octets. Leading zeros and signs
// are accepted ("-0" is zero); anything else is rejected.
func TestParseAddrAcceptSet(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ok   bool
		want Addr
	}{
		{"1.2.3.4", true, MakeAddr(1, 2, 3, 4)},
		{"0.0.0.0", true, MakeAddr(0, 0, 0, 0)},
		{"255.255.255.255", true, MakeAddr(255, 255, 255, 255)},
		{"16.123.1.254", true, MakeAddr(16, 123, 1, 254)},
		{"+1.2.3.4", true, MakeAddr(1, 2, 3, 4)},
		{"1.+2.3.+4", true, MakeAddr(1, 2, 3, 4)},
		{"01.2.3.4", true, MakeAddr(1, 2, 3, 4)},
		{"000255.2.3.4", true, MakeAddr(255, 2, 3, 4)},
		{"00000000000000000000001.2.3.4", true, MakeAddr(1, 2, 3, 4)},
		{"-0.1.2.3", true, MakeAddr(0, 1, 2, 3)},
		{"1.2.3.-00", true, MakeAddr(1, 2, 3, 0)},
		{"", false, 0},
		{".", false, 0},
		{"...", false, 0},
		{"1.2.3", false, 0},
		{"1.2.3.4.", false, 0},
		{".1.2.3.4", false, 0},
		{"1.2.3.4.5", false, 0},
		{"1..2.3", false, 0},
		{"1..2.3.4", false, 0},
		{"256.0.0.1", false, 0},
		{"1.2.3.256", false, 0},
		{"1000.0.0.1", false, 0},
		{"99999999999999999999.0.0.1", false, 0},
		{"-1.0.0.0", false, 0},
		{"+.1.2.3", false, 0},
		{"-.1.2.3", false, 0},
		{"++1.2.3.4", false, 0},
		{"+-1.2.3.4", false, 0},
		{" 1.2.3.4", false, 0},
		{"1.2.3.4 ", false, 0},
		{"1.2.3.4\n", false, 0},
		{"1_0.2.3.4", false, 0},
		{"0x1.2.3.4", false, 0},
		{"a.b.c.d", false, 0},
		{"1.2.3.4a", false, 0},
		{"１.2.3.4", false, 0},
	} {
		got, err := ParseAddr(tc.in)
		switch {
		case !tc.ok && err == nil:
			t.Errorf("ParseAddr(%q) = %v, want rejection", tc.in, got)
		case tc.ok && err != nil:
			t.Errorf("ParseAddr(%q) rejected: %v", tc.in, err)
		case tc.ok && got != tc.want:
			t.Errorf("ParseAddr(%q) = %v, want %v", tc.in, got, tc.want)
		case err != nil && err.Error() != fmt.Sprintf("netsim: invalid address %q", tc.in):
			t.Errorf("ParseAddr(%q) error %q", tc.in, err)
		}
	}
}

func TestMakeAddrOctets(t *testing.T) {
	a := MakeAddr(10, 20, 30, 40)
	if a.String() != "10.20.30.40" {
		t.Fatalf("got %q", a)
	}
}

// twoHosts builds hostA—hostB with one link.
func twoHosts(eng *simcore.Engine, cfg LinkConfig) (*Network, *Node, *Node) {
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	nw.Connect(a, b, cfg)
	nw.ComputeRoutes()
	return nw, a, b
}

// hopsSent sums Sent over every direction of every link: the number of
// per-hop serializations the network completed.
func hopsSent(nw *Network) int64 {
	var n int64
	for _, l := range nw.Links() {
		for _, d := range l.Stats() {
			n += d.Sent
		}
	}
	return n
}

func TestDatagramDelivery(t *testing.T) {
	eng := simcore.NewEngine(1)
	cfg := LinkConfig{BandwidthBps: 100e6, Delay: 50 * simcore.Microsecond}
	_, a, b := twoHosts(eng, cfg)
	var gotSize int
	var gotAt simcore.Time
	b.HandleDatagrams(7, func(src Addr, srcPort Port, size int, payload any) {
		gotSize = size
		gotAt = eng.Now()
		if payload.(string) != "hi" {
			t.Errorf("payload = %v", payload)
		}
	})
	eng.Spawn("send", func(p *simcore.Proc) {
		if err := a.SendDatagram(b.Addr, 99, 7, 100, "hi"); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotSize != 100 {
		t.Fatalf("size = %d", gotSize)
	}
	// Expected: serialization (140 B at 100 Mb/s = 11.2 µs) + 50 µs delay.
	want := simcore.DurationOfSeconds(140*8/100e6) + 50*simcore.Microsecond
	if gotAt != simcore.Time(want) {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
}

func TestDatagramFragmentation(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Microsecond})
	delivered := false
	b.HandleDatagrams(7, func(_ Addr, _ Port, size int, _ any) {
		if size != 5000 {
			t.Errorf("size = %d", size)
		}
		delivered = true
	})
	eng.Spawn("send", func(p *simcore.Proc) {
		if err := a.SendDatagram(b.Addr, 1, 7, 5000, nil); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("datagram not delivered")
	}
	// 5000 bytes at 1460/packet → 4 fragments.
	if got := nw.TotalStats().PacketsDelivered; got != 4 {
		t.Fatalf("packets = %d, want 4", got)
	}
}

func TestRoutingThroughRouters(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.1.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	lan := LinkConfig{BandwidthBps: 100e6, Delay: 10 * simcore.Microsecond}
	wan := LinkConfig{BandwidthBps: 155e6, Delay: 20 * simcore.Millisecond}
	nw.Connect(a, r1, lan)
	core := nw.Connect(r1, r2, wan)
	edge := nw.Connect(r2, b, lan)
	nw.ComputeRoutes()

	d, hops, ok := nw.PathDelay(a, b)
	if !ok || hops != 3 {
		t.Fatalf("hops = %d ok=%v", hops, ok)
	}
	want := 20*simcore.Millisecond + 20*simcore.Microsecond
	if d != want {
		t.Fatalf("path delay = %v, want %v", d, want)
	}
	bw, ok := nw.PathBottleneckBps(a, b)
	if !ok || bw != 100e6 {
		t.Fatalf("bottleneck = %v", bw)
	}

	got := false
	b.HandleDatagrams(7, func(_ Addr, _ Port, _ int, _ any) { got = true })
	eng.Spawn("send", func(p *simcore.Proc) {
		if err := a.SendDatagram(b.Addr, 1, 7, 10, nil); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("not delivered across routers")
	}
	// Each router forwarded the one packet onto its outgoing direction:
	// the links count three hops sent, the network one packet
	// originated.
	if f1, f2 := core.Stats()[0].Sent, edge.Stats()[0].Sent; f1 != 1 || f2 != 1 {
		t.Fatalf("forward counts r1->r2=%d r2->b=%d", f1, f2)
	}
	if sent, orig := hopsSent(nw), nw.TotalStats().PacketsOriginated; sent-orig != 2 {
		t.Fatalf("sent %d, originated %d: want two forwarded hops", sent, orig)
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	slow := nw.AddRouter("slow")
	fast := nw.AddRouter("fast")
	nw.Connect(a, slow, LinkConfig{BandwidthBps: 1e9, Delay: 10 * simcore.Millisecond})
	nw.Connect(slow, b, LinkConfig{BandwidthBps: 1e9, Delay: 10 * simcore.Millisecond})
	nw.Connect(a, fast, LinkConfig{BandwidthBps: 1e9, Delay: simcore.Millisecond})
	nw.Connect(fast, b, LinkConfig{BandwidthBps: 1e9, Delay: simcore.Millisecond})
	nw.ComputeRoutes()
	d, hops, ok := nw.PathDelay(a, b)
	if !ok || hops != 2 || d != 2*simcore.Millisecond {
		t.Fatalf("d=%v hops=%d ok=%v", d, hops, ok)
	}
}

func TestNoRoute(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	nw.ComputeRoutes()
	if _, _, ok := nw.PathDelay(a, b); ok {
		t.Fatal("found route between disconnected hosts")
	}
	if err := a.SendDatagram(b.Addr, 1, 2, 10, nil); err == nil {
		t.Fatal("SendDatagram without route succeeded")
	}
}

func TestStreamConnectSendRecv(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: 50 * simcore.Microsecond})
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := c.Recv(p)
		if err != nil || m.Size != 1000 || m.Payload.(string) != "req" {
			t.Errorf("recv: %v %v", m, err)
			return
		}
		if err := c.Send(p, 2000, "resp"); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, 1000, "req"); err != nil {
			t.Error(err)
			return
		}
		m, err := c.Recv(p)
		if err != nil || m.Size != 2000 || m.Payload.(string) != "resp" {
			t.Errorf("recv: %v %v", m, err)
		}
		c.Close()
		// Next Recv should report closed (after peer FIN).
		if _, err := c.Recv(p); err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDialNoListener(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Microsecond})
	eng.Spawn("client", func(p *simcore.Proc) {
		if _, err := a.Dial(p, b.Addr, 81); err != ErrRefused {
			t.Errorf("Dial = %v, want ErrRefused", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownAddress(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, _ := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Microsecond})
	eng.Spawn("client", func(p *simcore.Proc) {
		if _, err := a.Dial(p, MustParseAddr("99.9.9.9"), 80); err == nil {
			t.Error("Dial to unknown address succeeded")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	ln, _ := b.Listen(80)
	const n = 50
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < n; i++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if m.Payload.(int) != i {
				t.Errorf("message %d carried %v", i, m.Payload)
				return
			}
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			size := 1 + (i*379)%9000
			if err := c.Send(p, size, i); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeMessage(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	ln, _ := b.Listen(80)
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		m, err := c.Recv(p)
		if err != nil || m.Size != 0 {
			t.Errorf("m=%v err=%v", m, err)
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, 0, "sig"); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestThroughputApproachesLink checks a bulk transfer achieves most of the
// link bandwidth once the window opens.
func TestThroughputApproachesLink(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: 100 * simcore.Microsecond})
	ln, _ := b.Listen(80)
	const total = 10 * 1024 * 1024
	var done simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		got := 0
		for got < total {
			m, err := c.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got += m.Size
		}
		done = p.Now()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for sent := 0; sent < total; sent += 64 * 1024 {
			if err := c.Send(p, 64*1024, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(total) * 8 / done.Seconds()
	if gbps < 80e6 {
		t.Fatalf("throughput = %.1f Mb/s, want > 80 Mb/s of a 100 Mb/s link", gbps/1e6)
	}
	if gbps > 100e6 {
		t.Fatalf("throughput = %.1f Mb/s exceeds link rate", gbps/1e6)
	}
}

// TestReliabilityUnderLoss: all messages arrive, in order, across a lossy
// link — the central reliability property.
func TestReliabilityUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%.2f", loss), func(t *testing.T) {
			eng := simcore.NewEngine(42)
			_, a, b := twoHosts(eng, LinkConfig{
				BandwidthBps: 10e6, Delay: 5 * simcore.Millisecond, LossProb: loss,
			})
			ln, _ := b.Listen(80)
			const n = 40
			received := 0
			eng.Spawn("server", func(p *simcore.Proc) {
				c, err := ln.Accept(p)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					m, err := c.Recv(p)
					if err != nil {
						t.Errorf("recv %d: %v", i, err)
						return
					}
					if m.Payload.(int) != i {
						t.Errorf("out of order: got %v want %d", m.Payload, i)
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
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if received != n {
				t.Fatalf("received %d/%d", received, n)
			}
		})
	}
}

func TestQueueDropTail(t *testing.T) {
	eng := simcore.NewEngine(1)
	// Tiny queue on a slow link: blasting datagrams must overflow it.
	nw, a, b := twoHosts(eng, LinkConfig{
		BandwidthBps: 1e6, Delay: simcore.Millisecond, QueueBytes: 3000,
	})
	b.HandleDatagrams(7, func(_ Addr, _ Port, _ int, _ any) {})
	eng.Spawn("blast", func(p *simcore.Proc) {
		for i := 0; i < 100; i++ {
			_ = a.SendDatagram(b.Addr, 1, 7, 1400, nil)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.TotalStats()
	if st.PacketsDropped == 0 {
		t.Fatal("no drops despite overflowing queue")
	}
	if st.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestLatencyMatchesAnalyticModel(t *testing.T) {
	// One-segment message: delivery time ≈ handshake-free send:
	// serialization + propagation, exactly.
	eng := simcore.NewEngine(1)
	bw := 100e6
	delay := 500 * simcore.Microsecond
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: bw, Delay: delay})
	ln, _ := b.Listen(80)
	var sentAt, gotAt simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		if _, err := c.Recv(p); err != nil {
			t.Error(err)
		}
		gotAt = p.Now()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		sentAt = p.Now()
		if err := c.Send(p, 1000, nil); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	oneWay := gotAt.Sub(sentAt)
	want := simcore.Duration(float64((1000+HeaderBytes)*8)/bw*1e9) + delay
	diff := math.Abs(float64(oneWay - want))
	if diff > float64(10*simcore.Microsecond) {
		t.Fatalf("one-way = %v, want ≈ %v", oneWay, want)
	}
}

// TestConnLossyTransfer: under 5% loss every message still arrives, so
// the data segments the link lost were retransmitted.
func TestConnLossyTransfer(t *testing.T) {
	eng := simcore.NewEngine(7)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond, LossProb: 0.05})
	ln, _ := b.Listen(80)
	var msgs, bytes int
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < 20; i++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			msgs++
			bytes += m.Size
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			if err := c.Send(p, 8000, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if msgs != 20 || bytes != 160000 {
		t.Fatalf("server received %d messages, %d bytes; want 20, 160000", msgs, bytes)
	}
	data, acks := nw.Links()[0].Stats()[0], nw.Links()[0].Stats()[1]
	if data.Sent == 0 || acks.Sent == 0 {
		t.Fatalf("a->b sent %d, b->a sent %d: want segments and ACKs", data.Sent, acks.Sent)
	}
	if data.Lost == 0 {
		t.Fatalf("a->b lost nothing under 5%% loss: %+v", data)
	}
}

func TestSRTTConverges(t *testing.T) {
	eng := simcore.NewEngine(1)
	delay := 10 * simcore.Millisecond
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: delay})
	ln, _ := b.Listen(80)
	var c *Conn
	eng.Spawn("server", func(p *simcore.Proc) {
		s, _ := ln.Accept(p)
		for {
			if _, err := s.Recv(p); err != nil {
				return
			}
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		var err error
		c, err = a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			_ = c.Send(p, 100, nil)
			p.Sleep(5 * simcore.Millisecond)
		}
		c.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	srtt := c.SRTT()
	if srtt < 2*delay || srtt > 2*delay+5*simcore.Millisecond {
		t.Fatalf("SRTT = %v, want ≈ RTT %v", srtt, 2*delay)
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (simcore.Time, int64) {
		eng := simcore.NewEngine(42)
		nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: 2 * simcore.Millisecond, LossProb: 0.03})
		ln, _ := b.Listen(80)
		var done simcore.Time
		eng.Spawn("server", func(p *simcore.Proc) {
			c, _ := ln.Accept(p)
			for i := 0; i < 30; i++ {
				if _, err := c.Recv(p); err != nil {
					return
				}
			}
			done = p.Now()
		})
		eng.Spawn("client", func(p *simcore.Proc) {
			c, err := a.Dial(p, b.Addr, 80)
			if err != nil {
				return
			}
			for i := 0; i < 30; i++ {
				_ = c.Send(p, 5000, nil)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return done, hopsSent(nw)
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", d1, p1, d2, p2)
	}
}

func TestLinkStatsUtilization(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	b.HandleDatagrams(7, func(_ Addr, _ Port, _ int, _ any) {})
	eng.Spawn("sender", func(p *simcore.Proc) {
		// 50% duty: each 1000B+40B packet serializes in 0.832ms; send one
		// every 1.664ms for one second.
		for i := 0; i < 600; i++ {
			_ = a.SendDatagram(b.Addr, 1, 7, 1000, nil)
			p.Sleep(1664 * simcore.Microsecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Links()[0].Stats()
	fwd, rev := st[0], st[1]
	if fwd.From != "a" || fwd.To != "b" || rev.From != "b" {
		t.Fatalf("directions: %+v", st)
	}
	if fwd.Sent != 600 || fwd.BytesSent != 600*1040 {
		t.Fatalf("fwd = %+v", fwd)
	}
	if rev.Sent != 0 {
		t.Fatalf("rev = %+v", rev)
	}
	if fwd.Utilization < 0.45 || fwd.Utilization > 0.55 {
		t.Fatalf("utilization = %v, want ≈0.5", fwd.Utilization)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	nw.AddHost("a", MustParseAddr("10.0.0.1"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name accepted")
		}
	}()
	nw.AddHost("a", MustParseAddr("10.0.0.2"))
}

func TestBidirectionalSimultaneous(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	ln, _ := b.Listen(80)
	const n = 10
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < n; i++ {
			if err := c.Send(p, 3000, nil); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.Recv(p); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if err := c.Send(p, 3000, nil); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.Recv(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoFlowsShareBottleneckFairly: two bulk TCP transfers through one
// bottleneck link end up with comparable shares — Reno's fairness in the
// aggregate.
func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	eng := simcore.NewEngine(6)
	nw := New(eng)
	a1 := nw.AddHost("a1", MustParseAddr("10.0.0.1"))
	a2 := nw.AddHost("a2", MustParseAddr("10.0.0.2"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.3"))
	r := nw.AddRouter("r")
	edge := LinkConfig{BandwidthBps: 100e6, Delay: 500 * simcore.Microsecond}
	nw.Connect(a1, r, edge)
	nw.Connect(a2, r, edge)
	nw.Connect(r, b, LinkConfig{BandwidthBps: 10e6, Delay: 500 * simcore.Microsecond})
	nw.ComputeRoutes()
	ln, _ := b.Listen(80)
	const total = 4 * 1024 * 1024
	var doneAt [2]simcore.Time
	for i := 0; i < 2; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("server%d", i), func(p *simcore.Proc) {
			c, err := ln.Accept(p)
			if err != nil {
				return
			}
			got := 0
			for got < total {
				m, err := c.Recv(p)
				if err != nil {
					return
				}
				got += m.Size
			}
			doneAt[i] = p.Now()
		})
	}
	for _, src := range []*Node{a1, a2} {
		src := src
		eng.Spawn("client-"+src.Name, func(p *simcore.Proc) {
			c, err := src.Dial(p, b.Addr, 80)
			if err != nil {
				return
			}
			for sent := 0; sent < total; sent += 64 * 1024 {
				if err := c.Send(p, 64*1024, nil); err != nil {
					return
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt[0] == 0 || doneAt[1] == 0 {
		t.Fatal("a flow did not finish")
	}
	// Note: servers accept in arrival order, so index ↔ flow pairing is
	// arbitrary; compare the two completion times directly.
	early, late := doneAt[0], doneAt[1]
	if early > late {
		early, late = late, early
	}
	// Aggregate near the link rate: 8 MB over a 10 Mb/s link ≈ 6.7 s.
	if late.Seconds() < 6.3 || late.Seconds() > 8.5 {
		t.Fatalf("last flow finished at %v, want ≈6.7-8s", late)
	}
	// Fairness: the first finisher must not starve the other — it should
	// complete in the second half of the run, not immediately.
	if early.Seconds() < 0.45*late.Seconds() {
		t.Fatalf("unfair sharing: flows finished at %v and %v", early, late)
	}
}

func TestRecvTimeout(t *testing.T) {
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond})
	ln, _ := b.Listen(80)
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		_, timedOut, err := c.RecvTimeout(p, 10*simcore.Millisecond)
		if !timedOut || err != nil {
			t.Errorf("timedOut=%v err=%v", timedOut, err)
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		if _, err := a.Dial(p, b.Addr, 80); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMinLinkDelay(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw := New(eng)
	if _, ok := nw.MinLinkDelay(); ok {
		t.Fatal("linkless network reported a min delay")
	}
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	c := nw.AddHost("c", MustParseAddr("10.0.0.3"))
	nw.Connect(a, b, LinkConfig{BandwidthBps: 1e9, Delay: 5 * simcore.Millisecond})
	nw.Connect(b, c, LinkConfig{BandwidthBps: 1e9, Delay: 200 * simcore.Microsecond})
	d, ok := nw.MinLinkDelay()
	if !ok || d != 200*simcore.Microsecond {
		t.Fatalf("MinLinkDelay = %v, %v; want 200µs, true", d, ok)
	}
}

// FindLink scans an endpoint's interfaces instead of every link. It
// must agree with a scan of Links() in creation order: either argument
// order, the earliest of parallel links, nil for unjoined or unknown
// nodes.
func TestFindLink(t *testing.T) {
	nw := New(simcore.NewEngine(1))
	hub := nw.AddRouter("hub")
	cfg := LinkConfig{BandwidthBps: 1e9, Delay: simcore.Microsecond}
	names := []string{"hub", "nosuch"}
	for i := 0; i < 5; i++ {
		h := nw.AddHost(fmt.Sprintf("h%d", i), MakeAddr(10, 0, 0, byte(i+1)))
		nw.Connect(h, hub, cfg)
		names = append(names, h.Name)
	}
	// Later parallel links, one in each orientation.
	nw.Connect(hub, nw.Node("h2"), cfg)
	nw.Connect(nw.Node("h3"), hub, cfg)
	nw.Connect(nw.Node("h0"), nw.Node("h1"), cfg)
	for _, a := range names {
		for _, b := range names {
			var want *Link
			for _, l := range nw.Links() {
				if (l.A.Name == a && l.B.Name == b) || (l.A.Name == b && l.B.Name == a) {
					want = l
					break
				}
			}
			if got := nw.FindLink(a, b); got != want {
				t.Errorf("FindLink(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// An 8-byte connKey with no padding keeps deliverTCP's per-packet
// conns lookup on the runtime's mapaccess2_fast64 path; a padded key
// falls back to the generic hashed lookup.
func TestConnKeyPacked(t *testing.T) {
	if got := unsafe.Sizeof(connKey{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(connKey{}) = %d, want 8", got)
	}
}

// Node and Link stay at 112 and 88 bytes: a 100k-host grid declares one
// of each per host (DESIGN.md §13, "Lazy hosts"). A Node keeps
// its transport endpoints behind one pointer, allocated on first use, and
// a Link points at a config it shares with every equal link. A field added
// to either is paid by every declared host.
func TestNodeLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 112 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 112 (see DESIGN.md)", got)
	}
	if got := unsafe.Sizeof(Link{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Link{}) = %d, want 88 (see DESIGN.md)", got)
	}
}

// channel stays at 200 bytes, inside the 208-byte size class. A Link
// does not embed its two channels: each direction allocates one on its
// first packet, so idle links cost nothing here. The queue head is an
// int32 tucked into the padding after down; two more words would move
// every opened direction up to the 224-byte class.
func TestChannelSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(channel{}); got != 200 {
		t.Fatalf("unsafe.Sizeof(channel{}) = %d, want 200", got)
	}
}
