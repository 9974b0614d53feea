package netsim

import (
	"math"
	"testing"

	"microgrid/internal/simcore"
)

// flowTransfer sends messages a→b over one link, at flow fidelity when
// flow is set, and returns completion time.
func flowTransfer(t *testing.T, flow bool, msgs, size int) (simcore.Time, int64) {
	t.Helper()
	eng := simcore.NewEngine(1)
	cfg := LinkConfig{BandwidthBps: 10e6, Delay: 5 * simcore.Millisecond}
	if flow {
		cfg.Fidelity = FidelityFlow
	}
	nw, a, b := twoHosts(eng, cfg)
	if nw.PathAllFlow(a, b) != flow {
		t.Fatal("fidelity not set")
	}
	ln, _ := b.Listen(80)
	var done simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < msgs; i++ {
			m, err := c.Recv(p)
			if err != nil || m.Size != size {
				t.Errorf("recv %d: %v %v", i, m, err)
				return
			}
			if m.Payload.(int) != i {
				t.Errorf("order: got %v want %d", m.Payload, i)
				return
			}
		}
		done = p.Now()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := c.Send(p, size, i); err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	return done, nw.Stats.PacketsSent
}

func TestFlowModeDeliversInOrder(t *testing.T) {
	done, _ := flowTransfer(t, true, 20, 5000)
	if done <= 0 {
		t.Fatal("no completion")
	}
}

func TestFlowModeIsOptimisticBound(t *testing.T) {
	// Flow mode is the ideal-pipe bound: it must complete no later than
	// packet mode (which pays slow start, ack dynamics and queue-drop
	// sawtooth) but stay within the same regime (< 2× optimistic).
	pkt, _ := flowTransfer(t, false, 40, 50000)
	flw, _ := flowTransfer(t, true, 40, 50000)
	if flw > pkt {
		t.Fatalf("flow mode (%v) slower than packet mode (%v)", flw, pkt)
	}
	if float64(pkt) > 2*float64(flw) {
		t.Fatalf("modes in different regimes: packet %v vs flow %v", pkt, flw)
	}
	// Flow mode should sit close to the analytic ideal:
	// 2 MB at 10 Mb/s ≈ 1.64 s + setup.
	ideal := 2.0e6 * 8 / 10e6
	if math.Abs(flw.Seconds()-ideal)/ideal > 0.1 {
		t.Fatalf("flow mode %v, ideal ≈%.2fs", flw, ideal)
	}
}

func TestFlowModeUsesFarFewerPackets(t *testing.T) {
	_, pktCount := flowTransfer(t, false, 40, 50000)
	_, flowCount := flowTransfer(t, true, 40, 50000)
	if flowCount*20 > pktCount {
		t.Fatalf("flow mode sent %d packets vs %d — expected ≥20× fewer", flowCount, pktCount)
	}
}

func TestFlowModeSmallMessageLatency(t *testing.T) {
	// One small message: arrival ≈ serialization + propagation, as in
	// packet mode.
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: 10 * simcore.Millisecond, Fidelity: FidelityFlow})
	ln, _ := b.Listen(80)
	var sent, got simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		if _, err := c.Recv(p); err == nil {
			got = p.Now()
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		sent = p.Now()
		_ = c.Send(p, 1000, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	oneWay := got.Sub(sent)
	want := 10*simcore.Millisecond + simcore.DurationOfSeconds(1040*8/100e6)
	if math.Abs(float64(oneWay-want)) > float64(100*simcore.Microsecond) {
		t.Fatalf("one-way %v, want ≈%v", oneWay, want)
	}
}

func TestFlowModeZeroSizeMessage(t *testing.T) {
	done, _ := flowTransfer(t, true, 1, 0)
	if done <= 0 {
		t.Fatal("zero-size message lost")
	}
}
