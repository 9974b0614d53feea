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
