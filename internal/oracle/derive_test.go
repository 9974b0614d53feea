package oracle

import (
	"math"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// The derivation must behave like the law it encodes: wider windows of
// disagreement on longer, fatter paths; the floor on paths where TCP's
// window never matters; never vacuous (an envelope of 1 would accept a
// hung flow model).
func TestDeriveEnvelopeShape(t *testing.T) {
	lanRel, lanAbs := DeriveEnvelope(EnvelopeParams{BottleneckBps: 100e6, RTTSeconds: 0.0004})
	if lanRel != flowRelFloor {
		t.Fatalf("LAN relative envelope %.3f, want the %.2f floor", lanRel, flowRelFloor)
	}
	if lanAbs < flowAbsFloorSeconds || lanAbs > flowAbsFloorSeconds+0.001 {
		t.Fatalf("LAN absolute envelope %.4f out of range", lanAbs)
	}

	// Monotone in RTT at fixed bandwidth, and always strictly below 1.
	prev := 0.0
	for _, rtt := range []float64{0.001, 0.004, 0.016, 0.064, 0.256} {
		rel, _ := DeriveEnvelope(EnvelopeParams{BottleneckBps: 100e6, RTTSeconds: rtt})
		if rel < prev {
			t.Fatalf("envelope shrank with RTT: %.3f after %.3f at rtt=%v", rel, prev, rtt)
		}
		if rel >= 1 {
			t.Fatalf("vacuous envelope %.3f at rtt=%v", rel, rtt)
		}
		prev = rel
	}

	// Once the bandwidth-delay product exceeds the receive window the
	// window-throttling regime must dominate: flow serializes at the
	// bottleneck, packet at W/RTT.
	p := EnvelopeParams{BottleneckBps: 622e6, RTTSeconds: 0.080}
	bdp := p.BottleneckBps / 8 * p.RTTSeconds
	if bdp <= float64(netsim.DefaultRecvWindow) {
		t.Fatal("test path is not long-fat")
	}
	rel, _ := DeriveEnvelope(p)
	if want := 1 - float64(netsim.DefaultRecvWindow)/bdp; rel < want {
		t.Fatalf("long-fat envelope %.3f below the window bound %.3f", rel, want)
	}

	// Degenerate params fall back to the floors rather than exploding.
	rel, abs := DeriveEnvelope(EnvelopeParams{})
	if rel != flowRelFloor || abs != flowAbsFloorSeconds {
		t.Fatalf("zero params gave rel=%.3f abs=%.4f, want floors", rel, abs)
	}
}

// bulkTransfer runs one S-byte message host→host over a single link at
// packet or flow fidelity and returns the virtual completion time.
func bulkTransfer(t *testing.T, flow bool, cfg netsim.LinkConfig, size int) float64 {
	t.Helper()
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	a := nw.AddHost("a", netsim.MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", netsim.MustParseAddr("10.0.0.2"))
	if flow {
		cfg.Fidelity = netsim.FidelityFlow
	}
	nw.Connect(a, b, cfg)
	nw.ComputeRoutes()
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var done simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		if m, err := c.Recv(p); err != nil || m.Size != size {
			t.Errorf("recv: %v %v", m, err)
			return
		}
		done = p.Now()
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, size, nil); err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("transfer incomplete")
	}
	return simcore.Duration(done).Seconds()
}

// The derived envelope must hold against the simulator itself: actual
// packet-vs-flow divergence on single bulk transfers — across window-
// bound, slow-start-bound, and latency-bound operating points — stays
// inside the envelope computed for that path. This is the law check:
// if either transfer law changes, this fails before the fuzz corpus
// notices.
func TestDerivedEnvelopeCoversTransferLaw(t *testing.T) {
	cases := []struct {
		name  string
		cfg   netsim.LinkConfig
		sizes []int
	}{
		{"lan", netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond},
			[]int{1 << 10, 1 << 16, 1 << 20}},
		{"wan", netsim.LinkConfig{BandwidthBps: 100e6, Delay: 10 * simcore.Millisecond},
			[]int{1 << 10, 1 << 18, 1 << 22}},
		{"long-fat", netsim.LinkConfig{BandwidthBps: 622e6, Delay: 20 * simcore.Millisecond},
			[]int{1 << 18, 1 << 22}},
	}
	for _, tc := range cases {
		p := EnvelopeParams{BottleneckBps: tc.cfg.BandwidthBps, RTTSeconds: 2 * tc.cfg.Delay.Seconds()}
		rel, abs := DeriveEnvelope(p)
		for _, size := range tc.sizes {
			pkt := bulkTransfer(t, false, tc.cfg, size)
			flw := bulkTransfer(t, true, tc.cfg, size)
			if flw > pkt+1e-9 {
				t.Errorf("%s size=%d: flow (%.4fs) slower than packet (%.4fs)", tc.name, size, flw, pkt)
			}
			diff := math.Abs(pkt - flw)
			if diff > abs && diff > rel*pkt {
				t.Errorf("%s size=%d: divergence %.4fs (packet %.4fs, flow %.4fs) exceeds derived rel=%.3f abs=%.4f",
					tc.name, size, diff, pkt, flw, rel, abs)
			}
		}
	}
}

// ScenarioEnvelope must read the path extremes off the scenario's own
// topology — WAN scenarios earn wider envelopes than the default LAN —
// and resolve generated topologies.
func TestScenarioEnvelope(t *testing.T) {
	lan, err := ScenarioEnvelope(&scenario.Scenario{
		Target: &scenario.Machine{Procs: 4, CPUMIPS: 300, NetBandwidthBps: 100e6,
			NetPerSideDelay: 25 * simcore.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lan.BottleneckBps != 100e6 || lan.RTTSeconds != 4*25e-6 {
		t.Fatalf("LAN params %+v", lan)
	}

	gen, err := ScenarioEnvelope(&scenario.Scenario{
		Seed:     3,
		Target:   &scenario.Machine{Procs: 4, CPUMIPS: 300},
		TopoGen:  &topology.GenSpec{Kind: topology.GenStar, Hosts: 600, Seed: 3},
		Workload: &scenario.Workload{Kind: "pingpong", MsgBytes: 1 << 16, Ranks: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 300 span at least two generated clusters, so the extremes
	// must reflect a WAN crossing: ≥ 2×2ms each way, 100 Mbps access.
	if gen.RTTSeconds < 0.008 {
		t.Fatalf("generated RTT %.4fs does not cross the WAN", gen.RTTSeconds)
	}
	if gen.BottleneckBps != 100e6 {
		t.Fatalf("generated bottleneck %.0f, want the 100 Mbps access links", gen.BottleneckBps)
	}
	lanRel, _ := DeriveEnvelope(lan)
	genRel, _ := DeriveEnvelope(gen)
	if genRel <= lanRel {
		t.Fatalf("WAN envelope %.3f not wider than LAN %.3f", genRel, lanRel)
	}
}
