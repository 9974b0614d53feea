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

// pacer lets a test advance a live simulation, processes included, one
// step at a time. It runs a process on every engine that sleeps one
// step of simulated time per tick and then blocks its engine on a real
// channel until the next tick, so between steps every shard is parked
// mid-run (RunUntil would shut the processes down).
type pacer struct {
	tick, done []chan struct{}
	ran        chan error
}

// startPaced spawns a pacer process on each engine and starts run (the
// simulation's Run) on its own goroutine; the simulation parks at time
// 0 until the first step.
func startPaced(engines []*simcore.Engine, step simcore.Duration, run func() error) *pacer {
	pc := &pacer{ran: make(chan error, 1)}
	for _, eng := range engines {
		tick, done := make(chan struct{}), make(chan struct{})
		pc.tick, pc.done = append(pc.tick, tick), append(pc.done, done)
		eng.Spawn("pacer", func(p *simcore.Proc) {
			for range tick {
				p.Sleep(step)
				done <- struct{}{}
			}
			eng.Stop()
		})
	}
	go func() { pc.ran <- run() }()
	return pc
}

// step runs the simulation for one step of simulated time.
func (pc *pacer) step() {
	for _, tick := range pc.tick {
		tick <- struct{}{}
	}
	for _, done := range pc.done {
		<-done
	}
}

// stop ends the run and returns Run's error.
func (pc *pacer) stop() error {
	for _, tick := range pc.tick {
		close(tick)
	}
	return <-pc.ran
}

// msgSize is the ping-pong message: three segments, so a message spans
// several data packets and its frame waits for all of them.
const msgSize = 4000

// exchange connects a to b and starts one message bouncing in each
// direction forever: each end sends a message and then receives the
// other's, reusing one payload. Each completed Recv appends the window
// it ran in (0 on a serial engine) to that end's list, within the
// capacity given, so the lists never grow during a measurement.
func exchange(tb testing.TB, a, b *Node, window func() int64, capacity int) (recvs [2]*[]int64) {
	tb.Helper()
	ln, err := b.Listen(80)
	if err != nil {
		tb.Fatal(err)
	}
	payload := &struct{ seq int }{}
	loop := func(p *simcore.Proc, c *Conn, got *[]int64) {
		for {
			if err := c.Send(p, msgSize, payload); err != nil {
				tb.Error(err)
				return
			}
			m, err := c.Recv(p)
			if err != nil || m.Size != msgSize || m.Payload != payload {
				tb.Errorf("recv %+v, %v", m, err)
				return
			}
			if len(*got) < cap(*got) {
				*got = append(*got, window())
			}
		}
	}
	for i := range recvs {
		s := make([]int64, 0, capacity)
		recvs[i] = &s
	}
	b.eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			tb.Error(err)
			return
		}
		loop(p, c, recvs[1])
	})
	a.eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			tb.Error(err)
			return
		}
		loop(p, c, recvs[0])
	})
	return recvs
}

// serialExchange runs exchange on one engine over cfg and warms it for
// a simulated second; each step is one millisecond.
func serialExchange(tb testing.TB, cfg LinkConfig) (*pacer, [2]*[]int64) {
	tb.Helper()
	eng := simcore.NewEngine(1)
	_, a, b := twoHosts(eng, cfg)
	recvs := exchange(tb, a, b, func() int64 { return 0 }, 1<<16)
	pc := startPaced([]*simcore.Engine{eng}, simcore.Millisecond, eng.Run)
	for range 1000 {
		pc.step()
	}
	if len(*recvs[0]) == 0 || len(*recvs[1]) == 0 {
		tb.Fatal("exchange did not start")
	}
	return pc, recvs
}

// assertMessagesZeroAlloc measures 1000 steps of a warm exchange and
// checks that both ends kept receiving.
func assertMessagesZeroAlloc(t *testing.T, what string, pc *pacer, recvs [2]*[]int64) {
	t.Helper()
	before := [2]int{len(*recvs[0]), len(*recvs[1])}
	if allocs := testing.AllocsPerRun(1000, pc.step); allocs != 0 {
		t.Errorf("%s: %v allocs per step, want 0", what, allocs)
	}
	for i := range recvs {
		if got := len(*recvs[i]) - before[i]; got < 500 {
			t.Errorf("%s: end %d received %d messages in 1001 steps", what, i, got)
		}
	}
	if err := pc.stop(); err != nil {
		t.Fatal(err)
	}
}

var msgLink = LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond / 4}

// TestMessageSteadyStateZeroAlloc pins Conn.Send/Recv at zero heap
// allocations on a packet link: the message boundary is held by value,
// the receive queue is a warm ring of Messages (no boxing), and every
// packet, hop, timer and waiter comes from a pool.
func TestMessageSteadyStateZeroAlloc(t *testing.T) {
	pc, recvs := serialExchange(t, msgLink)
	assertMessagesZeroAlloc(t, "packet-link message exchange", pc, recvs)
}

// TestFlowMessageZeroAlloc pins a message over a flow-fidelity link at
// zero heap allocations: the analytic delivery is a pooled message
// event, not a closure.
func TestFlowMessageZeroAlloc(t *testing.T) {
	cfg := msgLink
	cfg.Fidelity = FidelityFlow
	pc, recvs := serialExchange(t, cfg)
	assertMessagesZeroAlloc(t, "flow-link message exchange", pc, recvs)
}

// TestCrossShardMessageZeroAlloc pins the exchange with its two ends on
// the two shards of a parallel engine at zero heap allocations. Frames
// cross as pooled message events that migrate to the receiver's pool,
// and windows in which both shards run start their worker goroutine
// without allocating a barrier. The test checks that both shards
// received in a common window, so that path was taken.
func TestCrossShardMessageZeroAlloc(t *testing.T) {
	pe := simcore.NewParallelEngine(1, 2)
	cfg := msgLink
	cfg.Delay = simcore.Millisecond // the default lookahead
	nw, a, b := twoHosts(pe.Shard(0), cfg)
	nw.SetNodeEngine(b, pe.Shard(1))
	recvs := exchange(t, a, b, pe.Windows, 1<<16)
	pc := startPaced([]*simcore.Engine{pe.Shard(0), pe.Shard(1)}, simcore.Millisecond, pe.Run)
	for range 1000 {
		pc.step()
	}
	assertMessagesZeroAlloc(t, "cross-shard message exchange", pc, recvs)
	shared, i, j := 0, 0, 0
	r0, r1 := *recvs[0], *recvs[1]
	for i < len(r0) && j < len(r1) {
		switch {
		case r0[i] < r1[j]:
			i++
		case r0[i] > r1[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	if shared < 100 {
		t.Errorf("both shards received in only %d common windows", shared)
	}
}

// BenchmarkMessageSteadyState is one millisecond of a warm two-way
// message exchange on a packet link: about one 4000-byte message each
// way, with its segments and ACKs.
func BenchmarkMessageSteadyState(b *testing.B) {
	pc, _ := serialExchange(b, msgLink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.step()
	}
	b.StopTimer()
	if err := pc.stop(); err != nil {
		b.Fatal(err)
	}
}
