package netsim

import (
	"fmt"
	"math/rand"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// packetKind discriminates transport packet types.
type packetKind int

const (
	kindDatagram packetKind = iota
	kindSYN
	kindSYNACK
	kindACK // pure ack
	kindData
	kindFIN
)

func (k packetKind) String() string {
	switch k {
	case kindDatagram:
		return "DGRAM"
	case kindSYN:
		return "SYN"
	case kindSYNACK:
		return "SYNACK"
	case kindACK:
		return "ACK"
	case kindData:
		return "DATA"
	case kindFIN:
		return "FIN"
	}
	return "?"
}

// dropReason is why a packet was dropped, for its trace detail.
type dropReason int

const (
	dropQueueFull dropReason = iota
	dropTTLExpired
	dropNoRoute
	dropNoConn
)

// dropDetails holds every drop's trace detail, "<kind> <reason>", as a
// constant, so a traced drop builds no string.
var dropDetails = [...][4]string{
	kindDatagram: {"DGRAM queue full", "DGRAM ttl expired", "DGRAM no route", "DGRAM no conn"},
	kindSYN:      {"SYN queue full", "SYN ttl expired", "SYN no route", "SYN no conn"},
	kindSYNACK:   {"SYNACK queue full", "SYNACK ttl expired", "SYNACK no route", "SYNACK no conn"},
	kindACK:      {"ACK queue full", "ACK ttl expired", "ACK no route", "ACK no conn"},
	kindData:     {"DATA queue full", "DATA ttl expired", "DATA no route", "DATA no conn"},
	kindFIN:      {"FIN queue full", "FIN ttl expired", "FIN no route", "FIN no conn"},
}

// dropDetail is the trace detail of a k packet dropped for r.
func (k packetKind) dropDetail(r dropReason) string { return dropDetails[k][r] }

// Packet is the unit of transmission. Size includes header overhead.
// Packets are pooled per node: transports allocate with Node.newPacket
// and every terminal point of a packet's life (delivery, drop, loss)
// returns it with Node.freePacket on whichever node it ended at — a
// packet crossing shards migrates pools with the hand-off.
type Packet struct {
	Src, Dst         Addr
	SrcPort, DstPort Port
	Kind             packetKind
	Size             int
	// Seq is the first byte sequence number (kindData) or datagram
	// fragment index; Ack is the cumulative acknowledgment.
	Seq, Ack int64
	// FragTotal is the number of fragments in a datagram (kindDatagram).
	FragTotal int
	// Payload carries opaque application metadata on the final fragment.
	Payload any
	ttl     int
	// tsSent is the TCP timestamp option: a data segment's send time,
	// echoed by its ACK for the RTT sample; hasTS marks it present.
	tsSent simcore.Time
	// dstIdx is the destination's compact per-network node index, resolved
	// once at the origin so forwarding hops index a dense route table
	// instead of a map.
	dstIdx int32
	hasTS  bool
	// free links the network's packet free list.
	free *Packet
}

// newPacket returns a zeroed packet, reusing the engine-local free list
// when possible.
func (n *Node) newPacket() *Packet {
	p := n.pool.pktFree
	if p == nil {
		return &Packet{}
	}
	n.pool.pktFree = p.free
	n.pool.npkt--
	p.free = nil
	return p
}

// freePacket resets every field — ttl included; a stale ttl would silently
// shorten routes on reuse — and returns p to the engine-local free list
// (or the GC when the pool is at capacity).
func (n *Node) freePacket(p *Packet) {
	if n.pool.npkt >= maxPooled {
		return
	}
	*p = Packet{free: n.pool.pktFree}
	n.pool.pktFree = p
	n.pool.npkt++
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %v:%d->%v:%d seq=%d ack=%d %dB",
		p.Kind, p.Src, p.SrcPort, p.Dst, p.DstPort, p.Seq, p.Ack, p.Size)
}

const defaultTTL = 64

// channel is one direction of a link: a drop-tail queue feeding a
// serializer, then fixed propagation delay to dst. The channel runs on
// the source node's engine; when the destination lives on another shard
// the propagation leg crosses as a cross-shard send.
type channel struct {
	// name is the "src->dst" label trace events and the loss stream
	// carry; label builds it on first use. Only the source node's engine
	// (or a global action at a barrier) reads it, so the cache is never
	// written from two shards.
	name     string
	src, dst *Node
	cfg      LinkConfig
	// queue[head:] holds packets awaiting serialization; queuedBytes
	// tracks the drop-tail occupancy. The backing array is reused: head
	// advances as packets start and both reset when the queue drains.
	queue       []*Packet
	queuedBytes int
	busy        bool
	// down marks a failed link direction; epoch invalidates in-flight
	// transmissions when the link fails.
	down bool
	// head sits in the padding after down, keeping channel at 200
	// bytes, inside the 208-byte size class: every direction that
	// carries a packet allocates one.
	head  int32
	epoch int64
	// lossRng draws random loss from a per-channel stream derived from the
	// channel's stable name, so loss patterns are partition-independent.
	lossRng *rand.Rand
	// Stats. Enqueued counts every packet handed to send; Aborted counts
	// packets invalidated by an epoch bump while still serializing. Both
	// are only written from the source node's engine, so the per-direction
	// conservation identity (see DirectionStats) is race-free under
	// partitioning.
	Sent, Dropped, Lost int64
	Enqueued, Aborted   int64
	BytesSent           int64
	// busyTime accumulates serialization time for utilization reporting.
	busyTime simcore.Duration
	// flowBusyUntil serializes back-to-back transmissions on a
	// flow-fidelity channel (see flowTransmit); unused at packet fidelity.
	flowBusyUntil simcore.Time
}

// label returns the channel's "src->dst" name. Most channels of a large
// grid never carry a traced or lossy packet, so the name is built on
// first use instead of when the link is wired.
func (c *channel) label() string {
	if c.name == "" {
		c.name = c.src.Name + "->" + c.dst.Name
	}
	return c.name
}

// send enqueues pkt for transmission, applying drop-tail and random loss.
// The channel owns pkt from here on: dropped or lost packets return to the
// pool immediately.
func (c *channel) send(pkt *Packet) {
	c.Enqueued++
	if c.down {
		c.Dropped++
		c.src.stats.PacketsDropped++
		c.src.freePacket(pkt)
		return
	}
	if c.cfg.Fidelity == FidelityFlow {
		c.flowTransmit(pkt)
		return
	}
	if c.cfg.LossProb > 0 {
		if c.lossRng == nil {
			c.lossRng = c.src.eng.DeriveRand("netsim:loss:" + c.label())
		}
		if c.lossRng.Float64() < c.cfg.LossProb {
			c.Lost++
			c.src.stats.PacketsLost++
			if rec := c.src.eng.Recorder(); rec.Enabled(trace.CatNet) {
				rec.Event(trace.CatNet, "loss", trace.Attr{
					Link: c.label(), Bytes: int64(pkt.Size), Detail: pkt.Kind.String()})
			}
			c.src.freePacket(pkt)
			return
		}
	}
	if c.queuedBytes+pkt.Size > c.cfg.QueueBytes {
		c.Dropped++
		c.src.stats.PacketsDropped++
		if rec := c.src.eng.Recorder(); rec.Enabled(trace.CatNet) {
			rec.Event(trace.CatNet, "drop", trace.Attr{
				Link: c.label(), Bytes: int64(pkt.Size), Detail: pkt.Kind.dropDetail(dropQueueFull)})
		}
		c.src.freePacket(pkt)
		return
	}
	if len(c.queue) == cap(c.queue) && c.head > 0 {
		// Compact a queue that never drained before the append grows it.
		n := copy(c.queue, c.queue[c.head:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, pkt)
	c.queuedBytes += pkt.Size
	if !c.busy {
		c.startNext()
	}
}

// hopEvent drives one packet's serialize→propagate hop on a channel. The
// run closure is created once per pooled instance and reused across both
// legs and across hops, so a hop schedules no per-packet closures. A hop
// on a flow-fidelity channel has no serialization event: it starts at
// its arrival leg (see flowTransmit).
type hopEvent struct {
	ch     *channel
	pkt    *Packet
	epoch  int64
	txTime simcore.Duration
	// arrived is false while serialization is in progress and true while
	// the packet propagates toward ch.dst.
	arrived bool
	run     func()
	free    *hopEvent
}

// newHop takes a hop event from the engine-local free list, bound to c's
// current epoch.
func (n *Node) newHop(c *channel, pkt *Packet, txTime simcore.Duration) *hopEvent {
	h := n.pool.hopFree
	if h == nil {
		h = &hopEvent{}
		h.run = h.fire
	} else {
		n.pool.hopFree = h.free
		n.pool.nhop--
		h.free = nil
	}
	h.ch, h.pkt, h.epoch, h.txTime, h.arrived = c, pkt, c.epoch, txTime, false
	return h
}

func (n *Node) freeHop(h *hopEvent) {
	if n.pool.nhop >= maxPooled {
		h.ch, h.pkt = nil, nil
		return
	}
	h.ch, h.pkt = nil, nil
	h.free = n.pool.hopFree
	n.pool.hopFree = h
	n.pool.nhop++
}

// fire advances the hop one leg. Serialization completes at now+txTime;
// the packet then propagates. A link failure mid-flight (epoch bump)
// loses the packet. When the destination lives on another shard the
// propagation leg is a cross-shard send of the hop itself — legal
// because an inter-shard link's delay is at least the engine lookahead —
// and the hop and packet migrate to the destination's pools; the epoch
// re-check on arrival is safe because link state only changes at global
// barriers.
func (h *hopEvent) fire() {
	c := h.ch
	if !h.arrived {
		if c.epoch != h.epoch {
			c.Aborted++
			c.src.stats.PacketsAborted++
			c.src.freePacket(h.pkt)
			c.src.freeHop(h)
			return
		}
		c.Sent++
		c.BytesSent += int64(h.pkt.Size)
		c.busyTime += h.txTime
		c.src.stats.PacketsSent++
		if rec := c.src.eng.Recorder(); rec.Enabled(trace.CatNet) {
			// Serialization occupies [now-txTime, now]; propagation follows.
			rec.Hop(int64(c.src.eng.Now())-int64(h.txTime), int64(h.txTime), int64(h.pkt.Size),
				c.label(), h.pkt.Kind.String())
		}
		h.arrived = true
		if c.dst.eng != c.src.eng {
			c.src.eng.SendTo(c.dst.eng, c.cfg.Delay, h.run)
		} else {
			c.src.eng.After(c.cfg.Delay, h.run)
		}
		if int(c.head) < len(c.queue) {
			c.startNext()
		} else {
			c.busy = false
		}
		return
	}
	// The arrival leg runs on the destination's engine, so the hop and
	// any abort go to c.dst's pool and bucket — the same ones as c.src's
	// when both ends share an engine. The channel's own counters belong
	// to the source engine and are not written here.
	pkt, ok := h.pkt, c.epoch == h.epoch
	c.dst.freeHop(h)
	if !ok {
		c.dst.stats.PacketsAborted++
		c.dst.freePacket(pkt)
		return
	}
	c.dst.receive(pkt)
}

// startNext begins serializing the head-of-line packet.
func (c *channel) startNext() {
	pkt := c.queue[c.head]
	c.queue[c.head] = nil
	if c.head++; int(c.head) == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	c.queuedBytes -= pkt.Size
	c.busy = true
	txTime := simcore.DurationOfSeconds(float64(pkt.Size) * 8 / c.cfg.BandwidthBps)
	c.src.eng.After(txTime, c.src.newHop(c, pkt, txTime).run)
}

// sendPacket routes pkt out of node n toward its destination, resolving
// the destination's dense route-table index once for the packet's whole
// journey. On error the packet is returned to the pool; callers must not
// touch it afterwards.
func (n *Node) sendPacket(pkt *Packet) error {
	if n.crashed {
		n.freePacket(pkt)
		return fmt.Errorf("netsim: node %s is crashed", n.Name)
	}
	if pkt.ttl == 0 {
		pkt.ttl = defaultTTL
	}
	if pkt.Dst == n.Addr {
		// Loopback: deliver at the current instant through the event queue.
		n.stats.PacketsOriginated++
		n.eng.After(0, func() { n.receive(pkt) })
		return nil
	}
	if !n.net.routed {
		n.net.ComputeRoutes()
	}
	dn := n.net.byAddr[pkt.Dst]
	if dn == nil {
		n.freePacket(pkt)
		return fmt.Errorf("netsim: no route from %s to %v", n.Name, pkt.Dst)
	}
	pkt.dstIdx = dn.idx
	ifc := n.net.nextHop(n, dn.idx)
	if ifc == nil {
		n.freePacket(pkt)
		return fmt.Errorf("netsim: no route from %s to %v", n.Name, pkt.Dst)
	}
	n.stats.PacketsOriginated++
	ifc.channel().send(pkt)
	return nil
}

// receive handles a packet arriving at node n: local delivery or forward.
func (n *Node) receive(pkt *Packet) {
	if n.crashed {
		n.stats.PacketsDropped++
		n.freePacket(pkt)
		return
	}
	if pkt.Dst != n.Addr {
		pkt.ttl--
		if pkt.ttl <= 0 {
			n.stats.PacketsDropped++
			if rec := n.eng.Recorder(); rec.Enabled(trace.CatNet) {
				rec.Event(trace.CatNet, "drop", trace.Attr{
					Host: n.Name, Bytes: int64(pkt.Size), Detail: pkt.Kind.dropDetail(dropTTLExpired)})
			}
			n.freePacket(pkt)
			return
		}
		ifc := n.net.nextHop(n, pkt.dstIdx)
		if ifc == nil {
			n.stats.PacketsDropped++
			if rec := n.eng.Recorder(); rec.Enabled(trace.CatNet) {
				rec.Event(trace.CatNet, "drop", trace.Attr{
					Host: n.Name, Bytes: int64(pkt.Size), Detail: pkt.Kind.dropDetail(dropNoRoute)})
			}
			n.freePacket(pkt)
			return
		}
		ifc.channel().send(pkt)
		return
	}
	n.stats.PacketsDelivered++
	n.stats.BytesDelivered += int64(pkt.Size)
	n.demux(pkt)
	n.freePacket(pkt)
}

// demux dispatches a locally delivered packet to its transport endpoint.
func (n *Node) demux(pkt *Packet) {
	switch pkt.Kind {
	case kindDatagram:
		n.deliverDatagram(pkt)
	default:
		n.deliverTCP(pkt)
	}
}
