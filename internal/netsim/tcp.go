package netsim

import (
	"errors"
	"fmt"
	"math"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Transport tuning constants.
const (
	// DefaultRecvWindow is the advertised receiver window (bytes).
	DefaultRecvWindow = 256 * 1024
	// DefaultSendBuffer bounds unacknowledged bytes buffered at the sender.
	DefaultSendBuffer = 256 * 1024
	initialRTO        = 200 * simcore.Millisecond
	minRTO            = 10 * simcore.Millisecond
	maxRTO            = 60 * simcore.Second
	synRetryInterval  = simcore.Second
	maxSynRetries     = 5
	// maxConsecTimeouts bounds consecutive data-retransmission timeouts:
	// after this many back-to-back RTO expiries with no forward progress
	// the connection aborts (ErrClosed to both senders and receivers).
	// This is the transport's failure detector — without it a dead peer
	// would be retransmitted to forever.
	maxConsecTimeouts = 8
)

// ErrClosed is returned by Send/Recv on a closed connection.
var ErrClosed = errors.New("netsim: connection closed")

// ErrRefused is returned by Dial when no listener exists at the target.
var ErrRefused = errors.New("netsim: connection refused")

// connKey identifies a connection endpoint within a node. The Addr comes
// first so the key packs into 8 bytes with no padding, which lets the
// per-packet conns lookup use the runtime's 64-bit map fast path.
type connKey struct {
	remote     Addr
	local      Port
	remotePort Port
}

// Listener accepts incoming stream connections on a port.
type Listener struct {
	node    *Node
	port    Port
	backlog *simcore.Queue[*Conn]
	closed  bool
}

// Listen starts accepting connections on port.
func (n *Node) Listen(port Port) (*Listener, error) {
	ep := n.endpoints()
	if _, dup := ep.listeners[port]; dup {
		return nil, fmt.Errorf("netsim: %s port %d already listening", n.Name, port)
	}
	l := &Listener{node: n, port: port, backlog: simcore.NewQueue[*Conn](n.eng)}
	if ep.listeners == nil {
		ep.listeners = make(map[Port]*Listener)
	}
	ep.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection completes its handshake.
func (l *Listener) Accept(p *simcore.Proc) (*Conn, error) {
	c, ok := l.backlog.Get(p)
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close stops the listener; blocked Accepts return ErrClosed.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.node.ep.listeners, l.port)
	l.backlog.Close()
}

// outMsg and inMsg track application message boundaries in the byte stream.
// The payload itself does not ride inside simulated packets (this is a
// simulator, not a data plane); delivery *timing* is governed entirely by
// the byte-stream mechanics.
type inMsg struct {
	end     int64 // stream offset one past the message's last byte
	size    int   // application-visible size
	payload any
}

// Message is a received application message.
type Message struct {
	Size    int
	Payload any
}

// Conn is one endpoint of a reliable, ordered, message-framed stream over
// the simulated network, with TCP-Reno-like congestion control: slow start,
// congestion avoidance, fast retransmit/recovery and RTO with exponential
// backoff.
type Conn struct {
	node *Node
	key  connKey
	peer *Conn
	mss  int

	established bool
	estCond     *simcore.Cond
	synTries    int
	listener    *Listener // server side: where to enqueue on establish

	// Sender state (byte sequence space).
	sndUna, sndNxt, sndEnd int64
	cwnd, ssthresh         float64
	rwnd                   int64
	sndBufCap              int64
	sndSpace               *simcore.Cond
	dupAcks                int
	fastRecovery           bool
	recoverSeq             int64
	rto                    simcore.Duration
	srtt, rttvar           float64 // seconds; srtt < 0 means no sample yet
	rtoGen                 int64
	consecTimeouts         int
	sendClosed             bool // Close requested
	finSent                bool

	// Receiver state. inMsgs[msgHead:] holds the message boundaries not
	// yet delivered, in stream order; the backing array is reused like a
	// channel queue's.
	rcvNxt    int64
	received  intervalSet
	inMsgs    []inMsg
	msgHead   int
	rcvQ      *simcore.Queue[Message]
	rcvClosed bool

	// Flow-mode state (see flowmode.go). flowPath caches whether the
	// routed path to the peer runs entirely at flow fidelity.
	flowDelay     simcore.Duration
	flowBps       float64
	flowBusyUntil simcore.Time
	flowPath      int8 // 0: unchecked, 1: all-flow, -1: has packet links

	closed bool
}

func newConn(n *Node, key connKey) *Conn {
	c := &Conn{
		node:      n,
		key:       key,
		mss:       DefaultMTU - HeaderBytes,
		estCond:   simcore.NewCond(n.eng),
		cwnd:      0, // set at establish from mss
		ssthresh:  float64(DefaultRecvWindow),
		rwnd:      DefaultRecvWindow,
		sndBufCap: DefaultSendBuffer,
		sndSpace:  simcore.NewCond(n.eng),
		rto:       initialRTO,
		srtt:      -1,
		rcvQ:      simcore.NewQueue[Message](n.eng),
	}
	ep := n.endpoints()
	if ep.conns == nil {
		ep.conns = make(map[connKey]*Conn)
	}
	ep.conns[key] = c
	return c
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() simcore.Duration {
	if c.srtt < 0 {
		return 0
	}
	return simcore.DurationOfSeconds(c.srtt)
}

// ephemeralPort allocates a local port for outbound connections.
func (n *Node) ephemeralPort() Port {
	ep := n.endpoints()
	for {
		p := ep.nextPort
		ep.nextPort++
		if ep.nextPort == 0 {
			ep.nextPort = 49152
		}
		if _, used := ep.listeners[p]; !used {
			return p
		}
	}
}

// Dial opens a stream connection to dst:dstPort, blocking through the
// SYN/SYN-ACK handshake (with SYN retries under loss).
func (n *Node) Dial(p *simcore.Proc, dst Addr, dstPort Port) (*Conn, error) {
	if n.net.NodeByAddr(dst) == nil {
		return nil, fmt.Errorf("netsim: dial %v: unknown address", dst)
	}
	key := connKey{local: n.ephemeralPort(), remote: dst, remotePort: dstPort}
	c := newConn(n, key)
	c.sendSYN()
	for !c.established && !c.closed {
		c.estCond.Wait(p)
	}
	if c.closed {
		delete(n.ep.conns, key)
		return nil, ErrRefused
	}
	return c, nil
}

func (c *Conn) sendSYN() {
	c.synTries++
	pkt := c.node.newPacket()
	*pkt = Packet{
		Src: c.node.Addr, Dst: c.key.remote,
		SrcPort: c.key.local, DstPort: c.key.remotePort,
		Kind: kindSYN, Size: HeaderBytes,
		Payload: c,
	}
	if err := c.node.sendPacket(pkt); err != nil {
		c.closed = true
		c.estCond.Broadcast()
		return
	}
	eng := c.node.eng
	eng.After(synRetryInterval, func() {
		if c.established || c.closed {
			return
		}
		if c.synTries >= maxSynRetries {
			c.closed = true
			c.estCond.Broadcast()
			return
		}
		c.sendSYN()
	})
}

// deliverTCP dispatches stream-transport packets arriving at node n.
func (n *Node) deliverTCP(pkt *Packet) {
	if pkt.Kind == kindSYN {
		n.onSYN(pkt)
		return
	}
	var c *Conn
	if n.ep != nil {
		c = n.ep.conns[connKey{local: pkt.DstPort, remote: pkt.Src, remotePort: pkt.SrcPort}]
	}
	if c == nil {
		if rec := n.eng.Recorder(); rec.Enabled(trace.CatNet) {
			rec.Event(trace.CatNet, "drop", trace.Attr{
				Host: n.Name, Bytes: int64(pkt.Size), Detail: pkt.Kind.dropDetail(dropNoConn)})
		}
		return
	}
	switch pkt.Kind {
	case kindSYNACK:
		c.onSYNACK(pkt)
	case kindACK:
		c.establishServer()
		c.onACK(pkt)
	case kindData:
		// Data implies the peer completed the handshake even if the
		// handshake ACK itself was lost.
		c.establishServer()
		c.onData(pkt)
	case kindFIN:
		c.establishServer()
		c.onFIN(pkt)
	}
}

func (n *Node) onSYN(pkt *Packet) {
	var l *Listener
	if n.ep != nil {
		l = n.ep.listeners[pkt.DstPort]
	}
	if l == nil {
		// No listener: silently drop (a real stack would RST; the dialer's
		// SYN retries then give up and report ErrRefused).
		return
	}
	key := connKey{local: pkt.DstPort, remote: pkt.Src, remotePort: pkt.SrcPort}
	c, exists := n.ep.conns[key]
	if !exists {
		c = newConn(n, key)
		c.peer = pkt.Payload.(*Conn)
		c.peer.peer = c
		c.listener = l
	}
	// (Re)send SYN-ACK; duplicate SYNs (retries) are answered idempotently.
	synack := n.newPacket()
	*synack = Packet{
		Src: n.Addr, Dst: pkt.Src,
		SrcPort: pkt.DstPort, DstPort: pkt.SrcPort,
		Kind: kindSYNACK, Size: HeaderBytes,
	}
	_ = n.sendPacket(synack)
}

func (c *Conn) onSYNACK(pkt *Packet) {
	if c.established {
		return
	}
	c.established = true
	c.cwnd = 2 * float64(c.mss)
	c.estCond.Broadcast()
	// Final handshake ACK; its arrival establishes the server side.
	ack := c.node.newPacket()
	*ack = Packet{
		Src: c.node.Addr, Dst: c.key.remote,
		SrcPort: c.key.local, DstPort: c.key.remotePort,
		Kind: kindACK, Size: HeaderBytes, Ack: -1,
	}
	_ = c.node.sendPacket(ack)
}

// Send queues an application message of size bytes (plus payload metadata)
// and blocks until the transport has accepted it into the send buffer.
// Wire cost is size bytes of stream data segmented at the MSS, each segment
// carrying HeaderBytes of overhead. Zero-size messages occupy one stream
// byte so ordering and delivery still have a wire representation.
func (c *Conn) Send(p *simcore.Proc, size int, payload any) error {
	if c.closed || c.sendClosed {
		return ErrClosed
	}
	if size < 0 {
		return fmt.Errorf("netsim: negative message size %d", size)
	}
	for !c.established && !c.closed {
		c.estCond.Wait(p)
	}
	if c.closed {
		return ErrClosed
	}
	// Backpressure: wait for send-buffer space (a message may overshoot the
	// cap so that messages larger than the buffer still make progress).
	for c.sndEnd-c.sndUna >= c.sndBufCap && !c.closed {
		c.sndSpace.Wait(p)
	}
	if c.closed {
		return ErrClosed
	}
	if c.connFlow() {
		return c.flowSend(size, payload)
	}
	wire := size
	if wire == 0 {
		wire = 1
	}
	c.sndEnd += int64(wire)
	c.deliverFrame(inMsg{end: c.sndEnd, size: size, payload: payload})
	c.trySend()
	return nil
}

// deliverFrame hands a message boundary to the receiving endpoint. A
// same-engine peer gets it immediately, as before. A peer on another
// shard gets it via a cross-shard send after the path's propagation
// delay: that is never below the engine lookahead (every cross-shard
// path crosses a link between shards, and the lookahead is at most the
// delay of each such link) and never behind the message's data, which
// additionally pays serialization on every hop.
func (c *Conn) deliverFrame(m inMsg) {
	peer := c.peer
	if peer.node.eng == c.node.eng {
		peer.insertFrame(m)
		return
	}
	c.node.eng.SendTo(peer.node.eng, c.framePathDelay(), c.node.newMsg(peer, m, false).run)
}

// msgEvent carries one message to its receiving endpoint after a delay:
// a packet-path frame for insertFrame, or at flow fidelity the whole
// message for the receive queue. It is pooled like hopEvent, with run
// bound once per instance. The sender takes it from its own pool and the
// receiver's engine returns it to the receiver's, so across shards it
// migrates pools with the send.
type msgEvent struct {
	peer *Conn
	m    inMsg
	// flow marks a flow-fidelity message, which skips the frame list.
	flow bool
	run  func()
	free *msgEvent
}

func (n *Node) newMsg(peer *Conn, m inMsg, flow bool) *msgEvent {
	e := n.pool.msgFree
	if e == nil {
		e = &msgEvent{}
		e.run = e.fire
	} else {
		n.pool.msgFree = e.free
		n.pool.nmsg--
		e.free = nil
	}
	e.peer, e.m, e.flow = peer, m, flow
	return e
}

func (n *Node) freeMsg(e *msgEvent) {
	e.peer, e.m = nil, inMsg{}
	if n.pool.nmsg >= maxPooled {
		return
	}
	e.free = n.pool.msgFree
	n.pool.msgFree = e
	n.pool.nmsg++
}

// fire returns the event to the receiver's pool, then delivers.
func (e *msgEvent) fire() {
	peer, m, flow := e.peer, e.m, e.flow
	peer.node.freeMsg(e)
	if flow {
		peer.enqueue(m)
	} else {
		peer.insertFrame(m)
	}
}

// framePathDelay returns the current propagation delay to the peer,
// falling back to the engine lookahead when the path is down (the frame
// must still arrive so delivery resumes once data gets through).
func (c *Conn) framePathDelay() simcore.Duration {
	if dst := c.node.net.NodeByAddr(c.key.remote); dst != nil {
		if d, _, ok := c.node.net.PathDelay(c.node, dst); ok {
			return d
		}
	}
	if pe := c.node.eng.Parallel(); pe != nil {
		return pe.Lookahead()
	}
	return simcore.Millisecond
}

// insertFrame files m in stream order (frames can arrive out of order
// across shards if the path delay changed mid-stream) and delivers any
// messages whose bytes have already been acknowledged — possible when a
// route change lets data overtake an earlier frame.
func (c *Conn) insertFrame(m inMsg) {
	if len(c.inMsgs) == cap(c.inMsgs) && c.msgHead > 0 {
		// Compact a list that never drained before the append grows it.
		n := copy(c.inMsgs, c.inMsgs[c.msgHead:])
		clear(c.inMsgs[n:])
		c.inMsgs, c.msgHead = c.inMsgs[:n], 0
	}
	i := len(c.inMsgs)
	for i > c.msgHead && c.inMsgs[i-1].end > m.end {
		i--
	}
	c.inMsgs = append(c.inMsgs, inMsg{})
	copy(c.inMsgs[i+1:], c.inMsgs[i:])
	c.inMsgs[i] = m
	c.drainMsgs()
}

// drainMsgs delivers every leading message whose last byte has arrived,
// zeroing each delivered slot so the list keeps no payload alive.
func (c *Conn) drainMsgs() {
	for c.msgHead < len(c.inMsgs) && c.inMsgs[c.msgHead].end <= c.rcvNxt {
		m := c.inMsgs[c.msgHead]
		c.inMsgs[c.msgHead] = inMsg{}
		if c.msgHead++; c.msgHead == len(c.inMsgs) {
			c.inMsgs, c.msgHead = c.inMsgs[:0], 0
		}
		c.enqueue(m)
	}
}

// enqueue hands a complete message to Recv, unless the endpoint has
// stopped receiving.
func (c *Conn) enqueue(m inMsg) {
	if !c.rcvQ.Closed() {
		c.rcvQ.TryPut(Message{Size: m.size, Payload: m.payload})
	}
}

// Recv blocks until the next complete message arrives, returning its size
// and payload. It returns ErrClosed after the peer closes and all messages
// are drained.
func (c *Conn) Recv(p *simcore.Proc) (Message, error) {
	m, ok := c.rcvQ.Get(p)
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// RecvTimeout is Recv with a deadline; timedOut reports expiry.
func (c *Conn) RecvTimeout(p *simcore.Proc, d simcore.Duration) (m Message, timedOut bool, err error) {
	m, ok, to := c.rcvQ.GetTimeout(p, d)
	if to {
		return Message{}, true, nil
	}
	if !ok {
		return Message{}, false, ErrClosed
	}
	return m, false, nil
}

// Close flushes outstanding data, then sends FIN. Recv on the peer drains
// buffered messages and then reports ErrClosed.
func (c *Conn) Close() {
	if c.sendClosed || c.closed {
		return
	}
	c.sendClosed = true
	c.maybeFIN()
}

func (c *Conn) maybeFIN() {
	if !c.sendClosed || c.finSent || !c.established {
		return
	}
	fin := c.node.newPacket()
	*fin = Packet{
		Src: c.node.Addr, Dst: c.key.remote,
		SrcPort: c.key.local, DstPort: c.key.remotePort,
		Kind: kindFIN, Size: HeaderBytes,
	}
	if c.connFlow() {
		// Emit the FIN only after the last analytic delivery has landed.
		c.finSent = true
		eng := c.node.eng
		at := eng.Now()
		if t := c.flowBusyUntil.Add(c.flowDelay); t > at {
			at = t
		}
		eng.At(at, func() { _ = c.node.sendPacket(fin) })
		return
	}
	if c.sndUna < c.sndEnd {
		return
	}
	c.finSent = true
	_ = c.node.sendPacket(fin)
}

func (c *Conn) onFIN(*Packet) {
	if c.rcvClosed {
		return
	}
	c.rcvClosed = true
	c.rcvQ.Close()
}

// PeerClosed reports whether the peer has closed its sending side (FIN
// received) or the connection has failed outright. Buffered messages may
// still be pending; Recv drains them before reporting ErrClosed.
func (c *Conn) PeerClosed() bool { return c.rcvClosed || c.closed }

// abort tears this endpoint down unilaterally (node crash or retransmit
// exhaustion): blocked receivers drain what arrived and then get
// ErrClosed, blocked senders and dialers wake with an error, and all
// timers die. The peer is not notified — it discovers the failure via
// its own retransmission cap.
func (c *Conn) abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.rtoGen++ // cancel any pending RTO
	c.rcvClosed = true
	c.rcvQ.Close()
	c.estCond.Broadcast()
	c.sndSpace.Broadcast()
	delete(c.node.ep.conns, c.key)
}

// trySend transmits new segments while the window allows.
func (c *Conn) trySend() {
	for c.sndNxt < c.sndEnd {
		window := int64(math.Min(c.cwnd, float64(c.rwnd)))
		inflight := c.sndNxt - c.sndUna
		if inflight >= window {
			return
		}
		seg := int64(c.mss)
		if rem := c.sndEnd - c.sndNxt; rem < seg {
			seg = rem
		}
		if avail := window - inflight; avail < seg {
			if inflight > 0 {
				// Wait for acks rather than emit a silly-small segment.
				return
			}
			// cwnd never drops below one MSS, so with nothing in flight
			// the window always admits the (possibly partial) segment.
			seg = avail
		}
		c.sendSegment(c.sndNxt, int(seg))
		c.sndNxt += seg
	}
	if c.sndUna == c.sndEnd {
		c.maybeFIN()
	}
}

func (c *Conn) sendSegment(seq int64, length int) {
	pkt := c.node.newPacket()
	*pkt = Packet{
		Src: c.node.Addr, Dst: c.key.remote,
		SrcPort: c.key.local, DstPort: c.key.remotePort,
		Kind:   kindData,
		Size:   length + HeaderBytes,
		Seq:    seq,
		tsSent: c.node.eng.Now(),
		hasTS:  true,
	}
	_ = c.node.sendPacket(pkt)
	c.armRTO()
}

// armRTO schedules a retransmission timeout c.rto from now. Every arm is
// its own event; bumping rtoGen makes the earlier ones stale.
func (c *Conn) armRTO() {
	c.rtoGen++
	c.node.eng.After(c.rto, c.node.newRTO(c).run)
}

// rtoTimer is one armed retransmission timeout, pooled like hopEvent:
// run is bound once per instance, so arming a timer allocates nothing.
type rtoTimer struct {
	c    *Conn
	gen  int64
	run  func()
	free *rtoTimer
}

func (n *Node) newRTO(c *Conn) *rtoTimer {
	r := n.pool.rtoFree
	if r == nil {
		r = &rtoTimer{}
		r.run = r.fire
	} else {
		n.pool.rtoFree = r.free
		n.pool.nrto--
		r.free = nil
	}
	r.c, r.gen = c, c.rtoGen
	return r
}

func (n *Node) freeRTO(r *rtoTimer) {
	r.c = nil
	if n.pool.nrto >= maxPooled {
		return
	}
	r.free = n.pool.rtoFree
	n.pool.rtoFree = r
	n.pool.nrto++
}

// fire returns the timer to its pool, then times out if it is still the
// connection's current arm and data is outstanding.
func (r *rtoTimer) fire() {
	c, gen := r.c, r.gen
	c.node.freeRTO(r)
	if gen != c.rtoGen || c.sndUna >= c.sndNxt || c.closed {
		return
	}
	c.onTimeout()
}

func (c *Conn) onTimeout() {
	c.consecTimeouts++
	if c.consecTimeouts >= maxConsecTimeouts {
		// The peer is unreachable (crashed host, partitioned link):
		// give up, as a real stack's retransmission cap would.
		c.abort()
		return
	}
	inflight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = math.Max(inflight/2, 2*float64(c.mss))
	c.cwnd = float64(c.mss)
	c.dupAcks = 0
	c.fastRecovery = false
	c.sndNxt = c.sndUna // go-back-N
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.trySend()
}

// establishServer completes the passive side of the handshake on the first
// packet proving the peer is established.
func (c *Conn) establishServer() {
	if c.established || c.listener == nil {
		return
	}
	c.established = true
	c.cwnd = 2 * float64(c.mss)
	c.estCond.Broadcast()
	if !c.listener.closed {
		c.listener.backlog.TryPut(c)
	}
}

func (c *Conn) onACK(pkt *Packet) {
	if pkt.Ack == -1 { // handshake-completing ACK (server side)
		return
	}
	// RTT sample from the echoed timestamp.
	if pkt.hasTS {
		sample := c.node.eng.Now().Sub(pkt.tsSent).Seconds()
		if c.srtt < 0 {
			c.srtt = sample
			c.rttvar = sample / 2
		} else {
			const alpha, beta = 0.125, 0.25
			c.rttvar = (1-beta)*c.rttvar + beta*math.Abs(c.srtt-sample)
			c.srtt = (1-alpha)*c.srtt + alpha*sample
		}
		rto := simcore.DurationOfSeconds(c.srtt + 4*c.rttvar)
		if rto < minRTO {
			rto = minRTO
		}
		if rto > maxRTO {
			rto = maxRTO
		}
		c.rto = rto
	}
	switch {
	case pkt.Ack > c.sndUna:
		acked := float64(pkt.Ack - c.sndUna)
		c.sndUna = pkt.Ack
		c.consecTimeouts = 0 // forward progress
		if c.fastRecovery {
			if c.sndUna >= c.recoverSeq {
				c.fastRecovery = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ack during recovery: retransmit next hole.
				c.retransmitFirst()
			}
		} else if c.cwnd < c.ssthresh {
			c.cwnd += math.Min(acked, float64(c.mss)) // slow start
		} else {
			c.cwnd += float64(c.mss) * float64(c.mss) / c.cwnd // congestion avoidance
		}
		c.dupAcks = 0
		if c.sndUna < c.sndNxt {
			c.armRTO()
		} else {
			c.rtoGen++ // cancel timer; nothing outstanding
			c.rto = c.currentRTOFromSRTT()
		}
		c.sndSpace.Broadcast()
		c.trySend()
	case pkt.Ack == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		if c.fastRecovery {
			c.cwnd += float64(c.mss) // inflate
			c.trySend()
		} else if c.dupAcks == 3 {
			inflight := float64(c.sndNxt - c.sndUna)
			c.ssthresh = math.Max(inflight/2, 2*float64(c.mss))
			c.retransmitFirst()
			c.cwnd = c.ssthresh + 3*float64(c.mss)
			c.fastRecovery = true
			c.recoverSeq = c.sndNxt
		}
	}
}

func (c *Conn) currentRTOFromSRTT() simcore.Duration {
	if c.srtt < 0 {
		return initialRTO
	}
	rto := simcore.DurationOfSeconds(c.srtt + 4*c.rttvar)
	if rto < minRTO {
		rto = minRTO
	}
	return rto
}

func (c *Conn) retransmitFirst() {
	length := int64(c.mss)
	if rem := c.sndEnd - c.sndUna; rem < length {
		length = rem
	}
	if length <= 0 {
		return
	}
	c.sendSegment(c.sndUna, int(length))
}

func (c *Conn) onData(pkt *Packet) {
	segStart := pkt.Seq
	segLen := int64(pkt.Size - HeaderBytes)
	if segLen > 0 {
		c.received.add(segStart, segStart+segLen)
		c.rcvNxt = c.received.contiguousFrom(0)
	}
	// Deliver any now-complete messages.
	c.drainMsgs()
	// Cumulative ACK, echoing the freshest timestamp.
	ack := c.node.newPacket()
	*ack = Packet{
		Src: c.node.Addr, Dst: c.key.remote,
		SrcPort: c.key.local, DstPort: c.key.remotePort,
		Kind: kindACK, Size: HeaderBytes,
		Ack:    c.rcvNxt,
		tsSent: pkt.tsSent,
		hasTS:  pkt.hasTS,
	}
	_ = c.node.sendPacket(ack)
}
