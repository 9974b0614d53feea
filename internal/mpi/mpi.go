// Package mpi is a message-passing library for applications running on the
// virtual Grid — the analog of the MPICH-over-Globus stack the paper's NPB
// and CACTUS workloads used. It provides ranks over virtualized sockets,
// blocking and nonblocking point-to-point operations with (source, tag)
// matching, and the collective operations the NAS Parallel Benchmarks
// need: Barrier, Bcast, Reduce, Allreduce, Allgather and Alltoallv.
//
// All communication flows through virtual.Conn, so every byte traverses
// the network simulator and every message charges its CPU cost to the
// owning virtual host — exactly the two resource models the MicroGrid
// couples.
package mpi

import (
	"fmt"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
	"microgrid/internal/virtual"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// envelopeBytes is the MPI header cost added to every message's wire size.
const envelopeBytes = 16

// envelope is the on-wire message representation. Envelopes are pooled
// per Comm: the sender takes one from its own free list and the receiver
// returns it to its own once Recv has copied out the data and status, so
// an envelope migrates with its message, as netsim's pooled events do.
// Each Comm's list is touched only by its own rank's processes, which
// share the rank's host and therefore its engine.
type envelope struct {
	src, tag int
	size     int
	data     any
	free     *envelope
}

// maxFreeEnvelopes bounds a Comm's envelope free list, so a rank that
// receives far more than it sends does not hoard envelopes.
const maxFreeEnvelopes = 256

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Size   int
}

// Comm is one rank's communicator handle.
type Comm struct {
	proc *virtual.Process
	rank int
	size int

	conns []*virtual.Conn // by peer rank; nil at self index
	// inbox holds arrived-but-unmatched envelopes, oldest first.
	inbox   []*envelope
	arrived *simcore.Cond
	// freeEnv lists nfree recycled envelopes.
	freeEnv *envelope
	nfree   int
	// isendName names Isend's helper processes.
	isendName string

	// Stats
	Sent, Received int64
	BytesSent      int64
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// rec returns the engine's trace recorder (nil-safe, may be nil).
func (c *Comm) rec() *trace.Recorder { return c.proc.Proc().Engine().Recorder() }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// Proc returns the underlying virtual process.
func (c *Comm) Proc() *virtual.Process { return c.proc }

// basePortDefault is where rank rendezvous ports start.
const basePortDefault netsim.Port = 5000

// Connect joins process p to a world of size ranks as the given rank.
// hostOf maps a rank to its virtual host name; every rank must call
// Connect (they rendezvous on basePort+rank). Pass basePort 0 for the
// default.
func Connect(p *virtual.Process, rank, size int, basePort netsim.Port, hostOf func(int) string) (*Comm, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	if basePort == 0 {
		basePort = basePortDefault
	}
	c := &Comm{
		proc:      p,
		rank:      rank,
		size:      size,
		conns:     make([]*virtual.Conn, size),
		arrived:   simcore.NewCond(p.Proc().Engine()),
		isendName: fmt.Sprintf("mpi-isend-r%d", rank),
	}
	if size == 1 {
		return c, nil
	}
	ln, err := p.Listen(basePort + netsim.Port(rank))
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d: %w", rank, err)
	}
	// Ranks dial every lower rank, then accept every higher rank. The
	// dependency order is acyclic (rank 0 only accepts), so the blocking
	// sequence below cannot deadlock.
	for j := 0; j < rank; j++ {
		conn, err := p.Dial(hostOf(j), basePort+netsim.Port(j))
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d dial rank %d: %w", rank, j, err)
		}
		if err := conn.Send(8, &envelope{src: rank, tag: -1}); err != nil {
			return nil, fmt.Errorf("mpi: rank %d hello to %d: %w", rank, j, err)
		}
		c.conns[j] = conn
	}
	for j := rank + 1; j < size; j++ {
		conn, err := ln.Accept(p)
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d accept: %w", rank, err)
		}
		m, err := conn.RecvRaw()
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d hello recv: %w", rank, err)
		}
		hello, ok := m.Payload.(*envelope)
		if !ok || hello.src <= rank || hello.src >= size {
			return nil, fmt.Errorf("mpi: rank %d: bad hello %v", rank, m.Payload)
		}
		c.conns[hello.src] = conn
	}
	ln.Close()
	// One progress daemon per peer feeds the unified inbox, enabling
	// AnySource receives across connections.
	for peer, conn := range c.conns {
		if conn == nil {
			continue
		}
		conn := conn
		name := fmt.Sprintf("mpi-progress-r%d-p%d", rank, peer)
		if _, err := p.Host().SpawnDaemon(name, func(dp *virtual.Process) {
			// Rebind so the daemon blocks on its own process, not the
			// application's.
			dconn := conn.Rebind(dp)
			for {
				m, err := dconn.RecvRaw()
				if err != nil {
					return
				}
				env := m.Payload.(*envelope)
				c.inbox = append(c.inbox, env)
				c.arrived.Broadcast()
			}
		}); err != nil {
			return nil, fmt.Errorf("mpi: rank %d progress daemon: %w", rank, err)
		}
	}
	return c, nil
}

// Send transmits size bytes (plus data, delivered verbatim) to rank dst
// with the given tag, blocking until the transport accepts the message.
func (c *Comm) Send(dst, tag, size int, data any) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative user tag %d", tag)
	}
	return c.send(dst, tag, size, data)
}

func (c *Comm) send(dst, tag, size int, data any) error {
	return c.sendFrom(c.proc, dst, tag, size, data)
}

// sendFrom performs the send on behalf of vp (the application process for
// blocking sends, a helper process for Isend).
func (c *Comm) sendFrom(vp *virtual.Process, dst, tag, size int, data any) error {
	env := c.newEnvelope(tag, size, data)
	c.Sent++
	c.BytesSent += int64(size)
	if rec := c.rec(); rec.Enabled(trace.CatMPI) {
		rec.Event(trace.CatMPI, "send", trace.Attr{
			Host: c.proc.Host().Name, Rank: c.rank, Peer: dst, Bytes: int64(size)})
	}
	if dst == c.rank {
		vp.ChargeMessage(size)
		c.inbox = append(c.inbox, env)
		c.arrived.Broadcast()
		return nil
	}
	return c.conns[dst].Rebind(vp).Send(size+envelopeBytes, env)
}

// newEnvelope takes an envelope from the free list, or allocates one.
func (c *Comm) newEnvelope(tag, size int, data any) *envelope {
	env := c.freeEnv
	if env == nil {
		return &envelope{src: c.rank, tag: tag, size: size, data: data}
	}
	c.freeEnv, c.nfree = env.free, c.nfree-1
	*env = envelope{src: c.rank, tag: tag, size: size, data: data}
	return env
}

// freeEnvelope returns a received envelope to the free list, dropping
// its data reference.
func (c *Comm) freeEnvelope(env *envelope) {
	if c.nfree >= maxFreeEnvelopes {
		return
	}
	*env = envelope{free: c.freeEnv}
	c.freeEnv, c.nfree = env, c.nfree+1
}

// match returns the inbox index of the oldest envelope matching (src,
// tag), or -1. AnyTag only matches user (non-negative) tags: collective
// traffic lives in its own context, as in real MPI.
func (c *Comm) match(src, tag int) int {
	for i, env := range c.inbox {
		tagOK := env.tag == tag || (tag == AnyTag && env.tag >= 0)
		if (src == AnySource || env.src == src) && tagOK {
			return i
		}
	}
	return -1
}

// take removes inbox[i], charges and traces its receipt, and recycles
// its envelope once the data and status are copied out.
func (c *Comm) take(i int) (any, Status) {
	env := c.inbox[i]
	n := copy(c.inbox[i:], c.inbox[i+1:])
	c.inbox[i+n] = nil // the vacated tail slot must not alias a recycled envelope
	c.inbox = c.inbox[:i+n]
	data, st := env.data, Status{Source: env.src, Tag: env.tag, Size: env.size}
	c.freeEnvelope(env)
	c.Received++
	c.proc.ChargeMessage(st.Size)
	if rec := c.rec(); rec.Enabled(trace.CatMPI) {
		rec.Event(trace.CatMPI, "recv", trace.Attr{
			Host: c.proc.Host().Name, Rank: c.rank, Peer: st.Source, Bytes: int64(st.Size)})
	}
	return data, st
}

// Recv blocks until a message matching (src, tag) arrives — AnySource and
// AnyTag match anything — and returns its data and status. Matching is
// FIFO among queued messages.
func (c *Comm) Recv(src, tag int) (any, Status, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, Status{}, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	for {
		if i := c.match(src, tag); i >= 0 {
			data, st := c.take(i)
			return data, st, nil
		}
		c.arrived.Wait(c.proc.Proc())
	}
}

// RecvTimeout is Recv with a deadline of d *virtual* time: if no
// matching message arrives in time it returns timedOut=true with no
// message consumed. This is the failure-detection primitive fault-
// tolerant masters use to notice dead workers.
func (c *Comm) RecvTimeout(src, tag int, d simcore.Duration) (any, Status, bool, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return nil, Status{}, false, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	deadline := c.proc.Gettimeofday().Add(d)
	for {
		if i := c.match(src, tag); i >= 0 {
			data, st := c.take(i)
			return data, st, false, nil
		}
		remain := deadline.Sub(c.proc.Gettimeofday())
		timedOut := remain <= 0
		if !timedOut {
			_, timedOut = c.arrived.WaitTimeout(c.proc.Proc(), c.proc.ToPhysical(remain))
		}
		if timedOut {
			if rec := c.rec(); rec.Enabled(trace.CatMPI) {
				rec.Event(trace.CatMPI, "recv-timeout", trace.Attr{
					Host: c.proc.Host().Name, Rank: c.rank, Peer: src})
			}
			return nil, Status{}, true, nil
		}
	}
}

// Probe reports whether a matching message is already queued, without
// receiving it.
func (c *Comm) Probe(src, tag int) (Status, bool) {
	i := c.match(src, tag)
	if i < 0 {
		return Status{}, false
	}
	env := c.inbox[i]
	return Status{Source: env.src, Tag: env.tag, Size: env.size}, true
}

// Sendrecv performs a combined send and receive, overlapping the two (the
// send is issued asynchronously so exchanging partners cannot deadlock).
func (c *Comm) Sendrecv(dst, sendTag, size int, data any, src, recvTag int) (any, Status, error) {
	req, err := c.Isend(dst, sendTag, size, data)
	if err != nil {
		return nil, Status{}, err
	}
	got, st, err := c.Recv(src, recvTag)
	if err != nil {
		return nil, st, err
	}
	if err := req.Wait(); err != nil {
		return nil, st, err
	}
	return got, st, nil
}

// Request is a handle for a nonblocking operation.
type Request struct {
	done *simcore.Cond
	fin  bool
	err  error
	// recv fields
	comm     *Comm
	isRecv   bool
	src, tag int
	data     any
	status   Status
}

// Isend starts a buffered asynchronous send and returns a Request.
func (c *Comm) Isend(dst, tag, size int, data any) (*Request, error) {
	if dst < 0 || dst >= c.size {
		return nil, fmt.Errorf("mpi: isend to invalid rank %d", dst)
	}
	r := &Request{comm: c, done: simcore.NewCond(c.proc.Proc().Engine())}
	if _, err := c.proc.Host().Spawn(c.isendName, func(p *virtual.Process) {
		r.err = c.sendFrom(p, dst, tag, size, data)
		r.fin = true
		r.done.Broadcast()
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Irecv posts a nonblocking receive; the match happens in Wait.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{comm: c, isRecv: true, src: src, tag: tag}
}

// Wait blocks until the operation completes. For receives the matched
// data is available via Data/Status after Wait returns.
func (r *Request) Wait() error {
	if r.isRecv {
		if r.fin {
			return r.err
		}
		r.data, r.status, r.err = r.comm.Recv(r.src, r.tag)
		r.fin = true
		return r.err
	}
	for !r.fin {
		r.done.Wait(r.comm.proc.Proc())
	}
	return r.err
}

// Data returns the received payload (valid after Wait on an Irecv).
func (r *Request) Data() any { return r.data }

// Status returns the received status (valid after Wait on an Irecv).
func (r *Request) Status() Status { return r.status }
