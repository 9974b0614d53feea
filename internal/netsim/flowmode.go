package netsim

import (
	"math"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Flow mode is the fast/low-fidelity end of the paper's future-work axis
// "exploring a range of simulation speed and fidelity" (§5): instead of
// simulating every packet, ack and queue, data transfers complete
// analytically at
//
//	arrival = departure + size/bottleneck + path propagation
//
// with per-connection serialization (back-to-back sends queue behind each
// other). Congestion between flows, slow start, loss and retransmission
// are not modeled — that is the fidelity trade. A connection sends its
// data this way when every link on its routed path runs at FidelityFlow;
// its handshake and FIN segments cross those same links through
// flowTransmit. A loopback connection has no links and keeps the packet
// loopback path.

// connFlow reports whether this connection's data transfers complete
// analytically: every link on the path to the peer is FidelityFlow.
// The path check is cached on first use, like flowDelay.
func (c *Conn) connFlow() bool {
	if c.flowPath == 0 {
		dst := c.node.net.NodeByAddr(c.key.remote)
		if c.node.net.PathAllFlow(c.node, dst) {
			c.flowPath = 1
		} else {
			c.flowPath = -1
		}
	}
	return c.flowPath == 1
}

// flowTransmit is the per-channel analytic path for a FidelityFlow link:
// the packet serializes at link bandwidth behind any transmission still
// in progress (flowBusyUntil), then propagates after the link delay — no
// queueing events, no drop-tail, no random loss. Sent/BytesSent count at
// enqueue (mirroring the serializer), so the per-direction conservation
// identity Enqueued = Sent + Dropped + Lost + Aborted + Queued holds with
// Queued always zero. A link failure mid-flight (epoch bump) aborts the
// packet on arrival, counted in the arrival shard's bucket exactly like
// the packet path's propagation-leg abort: the packet rides a hop event
// that starts at its arrival leg.
func (c *channel) flowTransmit(pkt *Packet) {
	eng := c.src.eng
	now := eng.Now()
	tx := simcore.DurationOfSeconds(float64(pkt.Size) * 8 / c.cfg.BandwidthBps)
	start := now
	if c.flowBusyUntil > start {
		start = c.flowBusyUntil
	}
	end := start.Add(tx)
	c.flowBusyUntil = end
	c.Sent++
	c.BytesSent += int64(pkt.Size)
	c.busyTime += tx
	if rec := eng.Recorder(); rec.Enabled(trace.CatNet) {
		rec.Event(trace.CatNet, "flow-hop", trace.Attr{
			Link: c.label(), Bytes: int64(pkt.Size), Detail: pkt.Kind.String()})
	}
	// A cross-shard send is legal: arrival-now ≥ the link delay, which
	// on a link between shards is at least the engine lookahead.
	h := c.src.newHop(c, pkt, tx)
	h.arrived = true
	eng.SendTo(c.dst.eng, end.Add(c.cfg.Delay).Sub(now), h.run)
}

// flowSend delivers a message analytically. Called from Conn.Send when
// connFlow holds, after establishment and buffer accounting.
func (c *Conn) flowSend(size int, payload any) error {
	eng := c.node.eng
	if c.flowDelay == 0 {
		src := c.node
		dst := c.node.net.NodeByAddr(c.key.remote)
		d, _, ok := c.node.net.PathDelay(src, dst)
		if !ok {
			return ErrClosed
		}
		bw, _ := c.node.net.PathBottleneckBps(src, dst)
		c.flowDelay = d
		c.flowBps = bw
	}
	wire := size
	if wire == 0 {
		wire = 1
	}
	// Segment header overhead, as the packet path would pay. Loopback
	// paths have infinite bandwidth: transmission is instantaneous.
	segs := (wire + c.mss - 1) / c.mss
	var tx simcore.Duration
	if !math.IsInf(c.flowBps, 1) && c.flowBps > 0 {
		tx = simcore.DurationOfSeconds(float64(wire+segs*HeaderBytes) * 8 / c.flowBps)
	}
	start := eng.Now()
	if c.flowBusyUntil > start {
		start = c.flowBusyUntil
	}
	end := start.Add(tx)
	c.flowBusyUntil = end
	arrival := end.Add(c.flowDelay)
	peer := c.peer
	// A cross-shard delivery is legal: arrival-now ≥ flowDelay, the
	// path's propagation, which is at least the engine lookahead.
	eng.SendTo(peer.node.eng, arrival.Sub(eng.Now()),
		c.node.newMsg(peer, inMsg{size: size, payload: payload}, true).run)
	return nil
}
