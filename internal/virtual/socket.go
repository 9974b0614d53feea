package virtual

import (
	"fmt"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// Conn is a virtualized stream socket: all addressing is in virtual IP
// space, and every send/receive charges the owning process its CPU cost.
// "We can run any socket-based application on the virtual Grid as the
// MicroGrid completely virtualizes the socket interface."
type Conn struct {
	p *Process
	c *netsim.Conn
}

// Listener accepts virtualized connections.
type Listener struct {
	h *Host
	l *netsim.Listener
}

// Listen opens a listening port on the process's virtual host.
func (p *Process) Listen(port netsim.Port) (*Listener, error) {
	l, err := p.host.Node.Listen(port)
	if err != nil {
		return nil, err
	}
	return &Listener{h: p.host, l: l}, nil
}

// Accept blocks until a connection arrives. The returned Conn charges CPU
// to the accepting process p (pass the handling process if it differs).
func (ln *Listener) Accept(p *Process) (*Conn, error) {
	c, err := ln.l.Accept(p.proc)
	if err != nil {
		return nil, err
	}
	return &Conn{p: p, c: c}, nil
}

// Close stops the listener.
func (ln *Listener) Close() { ln.l.Close() }

// Dial connects to a virtual host (by name or dotted-quad virtual IP) and
// port. This is where the virtual-to-physical mapping table is consulted
// in the real MicroGrid; here names resolve to virtual addresses on the
// simulated network.
func (p *Process) Dial(hostname string, port netsim.Port) (*Conn, error) {
	addr, err := p.host.grid.Resolve(hostname)
	if err != nil {
		return nil, err
	}
	c, err := p.host.Node.Dial(p.proc, addr, port)
	if err != nil {
		return nil, fmt.Errorf("virtual: dial %s:%d: %w", hostname, port, err)
	}
	return &Conn{p: p, c: c}, nil
}

// Rebind transfers CPU accounting to another process (e.g. a jobmanager
// handing a connection to a job).
func (c *Conn) Rebind(p *Process) *Conn { return &Conn{p: p, c: c.c} }

// Send transmits a message of size bytes with attached payload metadata,
// charging send-side CPU cost.
func (c *Conn) Send(size int, payload any) error {
	c.p.ChargeMessage(size)
	return c.c.Send(c.p.proc, size, payload)
}

// Recv blocks for the next message, charging receive-side CPU cost.
func (c *Conn) Recv() (netsim.Message, error) {
	m, err := c.c.Recv(c.p.proc)
	if err != nil {
		return m, err
	}
	c.p.ChargeMessage(m.Size)
	return m, nil
}

// RecvTimeout is Recv with a virtual-time deadline.
func (c *Conn) RecvTimeout(d simcore.Duration) (m netsim.Message, timedOut bool, err error) {
	phys := c.p.host.clock.ToPhysical(d)
	m, timedOut, err = c.c.RecvTimeout(c.p.proc, phys)
	if err == nil && !timedOut {
		c.p.ChargeMessage(m.Size)
	}
	return m, timedOut, err
}

// Close flushes and closes the sending direction.
func (c *Conn) Close() { c.c.Close() }

// PeerClosed reports whether the peer has closed its sending side or the
// connection has failed (crashed peer, exhausted retransmissions).
func (c *Conn) PeerClosed() bool { return c.c.PeerClosed() }

// RecvRaw blocks for the next message without charging CPU cost; callers
// that dispatch messages to other processes (e.g. the MPI progress
// daemons) charge the true recipient themselves.
func (c *Conn) RecvRaw() (netsim.Message, error) {
	return c.c.Recv(c.p.proc)
}
