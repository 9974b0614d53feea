package netsim

import (
	"testing"

	"microgrid/internal/simcore"
)

// segmentTime is one full-size segment's serialization time on the
// steady-state link: 1500 bytes at 100 Mb/s.
const segmentTime = 120 * simcore.Microsecond

// warmTransfer starts a bulk TCP transfer from a to b — one message far
// larger than anything the test lets finish — and runs it for a simulated
// second, so the congestion window has reached the receiver window and
// every pool, queue and lane is warm. Both processes exit once the
// transfer is under way, so the rest of it runs on events alone and the
// caller can advance it with RunUntil.
func warmTransfer(tb testing.TB) (*simcore.Engine, *Conn) {
	tb.Helper()
	eng := simcore.NewEngine(1)
	// The queue holds a full receiver window, so the transfer settles
	// into an ACK-clocked steady state with no drop-tail losses.
	_, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond,
		QueueBytes: 2 * DefaultRecvWindow})
	ln, err := b.Listen(80)
	if err != nil {
		tb.Fatal(err)
	}
	eng.Spawn("server", func(p *simcore.Proc) {
		if _, err := ln.Accept(p); err != nil {
			tb.Error(err)
		}
	})
	var c *Conn
	eng.Spawn("client", func(p *simcore.Proc) {
		var err error
		if c, err = a.Dial(p, b.Addr, 80); err != nil {
			tb.Error(err)
			return
		}
		if err := c.Send(p, 1<<40, nil); err != nil {
			tb.Error(err)
		}
	})
	if err := eng.RunUntil(simcore.Time(simcore.Second)); err != nil {
		tb.Fatal(err)
	}
	if c == nil || c.sndUna == 0 {
		tb.Fatal("transfer did not start")
	}
	return eng, c
}

// stepSegment advances the transfer by one segment time: one data
// segment delivered and one ACK returned, in the ACK-clocked steady state.
func stepSegment(eng *simcore.Engine) {
	if err := eng.RunUntil(eng.Now().Add(segmentTime)); err != nil {
		panic(err)
	}
}

// TestTCPSteadyStateZeroAlloc pins the packet path's steady state at zero
// heap allocations: a delivered segment and its ACK take their packets,
// hop events and RTO timer from the node pools, merge into the receive
// interval set in place, and reuse the link queues' backing arrays.
func TestTCPSteadyStateZeroAlloc(t *testing.T) {
	eng, c := warmTransfer(t)
	before := c.sndUna
	if allocs := testing.AllocsPerRun(1000, func() { stepSegment(eng) }); allocs != 0 {
		t.Errorf("steady-state TCP segment: %v allocs, want 0", allocs)
	}
	// 1001 steps of one segment time each must have moved about as many
	// full segments.
	if got := (c.sndUna - before) / int64(c.mss); got < 900 {
		t.Errorf("transfer advanced %d segments in 1001 segment times", got)
	}
}

// BenchmarkTCPSteadyState is one delivered segment plus its ACK of a warm
// bulk transfer.
func BenchmarkTCPSteadyState(b *testing.B) {
	eng, _ := warmTransfer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepSegment(eng)
	}
}

// crossShardPingPong wires a and b on the two shards of a parallel
// engine, across a 1 ms link (the default lookahead), and starts one
// single-packet datagram bouncing between them forever: each end's
// handler sends the packet's twin straight back, reusing one payload.
// It returns the engine, the round-trip time and the round-trip counter
// after a warm-up second.
func crossShardPingPong(tb testing.TB) (*simcore.ParallelEngine, simcore.Duration, *int) {
	tb.Helper()
	pe := simcore.NewParallelEngine(1, 2)
	cfg := LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond}
	nw, a, b := twoHosts(pe.Shard(0), cfg)
	nw.SetNodeEngine(b, pe.Shard(1))
	meta := &dgramMeta{size: 1000}
	bounce := func(from, to *Node) {
		pkt := from.newPacket()
		*pkt = Packet{Src: from.Addr, Dst: to.Addr, SrcPort: 7, DstPort: 7,
			Kind: kindDatagram, Size: 1000 + HeaderBytes, FragTotal: 1, Payload: meta}
		if err := from.sendPacket(pkt); err != nil {
			panic(err)
		}
	}
	trips := new(int)
	a.HandleDatagrams(7, func(Addr, Port, int, any) { *trips++; bounce(a, b) })
	b.HandleDatagrams(7, func(Addr, Port, int, any) { bounce(b, a) })
	bounce(a, b)
	if err := pe.RunUntil(simcore.Time(simcore.Second)); err != nil {
		tb.Fatal(err)
	}
	if *trips == 0 {
		tb.Fatal("ping-pong did not start")
	}
	hop := cfg.Delay + simcore.DurationOfSeconds(float64(1000+HeaderBytes)*8/cfg.BandwidthBps)
	return pe, 2 * hop, trips
}

// TestCrossShardHopZeroAlloc pins the cross-shard packet hop at zero
// heap allocations: the hop event itself crosses as the cross-shard
// send and, like the packet, migrates to the destination shard's pool,
// and the barrier sorts its deliveries without allocating. Each window
// has a single active shard, so no window starts a goroutine.
func TestCrossShardHopZeroAlloc(t *testing.T) {
	pe, rtt, trips := crossShardPingPong(t)
	before, now := *trips, simcore.Time(simcore.Second)
	step := func() {
		now = now.Add(rtt)
		if err := pe.RunUntil(now); err != nil {
			panic(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady cross-shard round trip: %v allocs, want 0", allocs)
	}
	if got := *trips - before; got != 1001 {
		t.Errorf("%d round trips in 1001 round-trip times", got)
	}
	if pe.CrossEvents() < 2002 {
		t.Errorf("%d cross-shard events, want one per hop", pe.CrossEvents())
	}
}
