package netsim

import (
	"fmt"
	"sort"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Link and node fault primitives: Grid environments "exhibit extreme
// heterogeneity of configuration, performance, and reliability" (paper
// §1); adaptive middleware studies need links that fail, flap, degrade
// and lose packets, and hosts that crash and reboot. netsim schedules no
// fault itself: chaos schedules (internal/chaos) are the one source of
// faults, and they drive these state changes (SetDown, Degrade, Restore,
// SetCrashed) at their chosen instants. A downed link drops everything in
// flight and in queue; routes recompute around it.

// SetDown changes the link's failure state. Taking a link down drops its
// queued packets; routes are recomputed either way so traffic immediately
// uses (or reclaims) the path.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	for _, c := range l.ch {
		if c != nil {
			c.setDown(down)
		}
	}
	nw := l.A.net
	if rec := l.A.eng.Recorder(); rec.Enabled(trace.CatLink) {
		name := "link-up"
		if down {
			name = "link-down"
		}
		rec.Event(trace.CatLink, name, trace.Attr{Link: l.label()})
	}
	nw.invalidateRoutes()
}

// Down reports the link's failure state.
func (l *Link) Down() bool { return l.down }

// Degrade scales the link's bandwidth and delay by the given factors and
// sets a loss probability, remembering the original configuration for
// Restore. Factors ≤ 0 leave that parameter unchanged; loss < 0 keeps
// the original loss rate. Repeated Degrades rebase on the original
// configuration rather than compounding. Packets already serializing
// finish at their old rate; routes recompute with the new delay.
//
// The original config may be shared with other links (see Connect), so
// Degrade never writes it: it keeps the shared pointer and gives the
// link a config of its own.
func (l *Link) Degrade(bwFactor, delayFactor, loss float64) {
	if l.orig == nil {
		l.orig = l.Config
	}
	cfg := *l.orig
	if bwFactor > 0 {
		cfg.BandwidthBps = l.orig.BandwidthBps * bwFactor
	}
	cfg.Delay = l.DegradedDelay(delayFactor)
	if loss >= 0 {
		cfg.LossProb = loss
	}
	if rec := l.A.eng.Recorder(); rec.Enabled(trace.CatLink) {
		rec.Event(trace.CatLink, "link-degrade", trace.Attr{
			Link:   l.label(),
			Detail: fmt.Sprintf("bw=%.3g delay=%v loss=%.3g", cfg.BandwidthBps, cfg.Delay, cfg.LossProb),
		})
	}
	l.applyConfig(&cfg)
}

// DegradedDelay returns the propagation delay Degrade gives the link
// for delayFactor: the original delay scaled by it, or left unchanged
// when it is ≤ 0.
func (l *Link) DegradedDelay(delayFactor float64) simcore.Duration {
	d := l.Config.Delay
	if l.orig != nil {
		d = l.orig.Delay
	}
	if delayFactor > 0 {
		d = simcore.Duration(float64(d) * delayFactor)
	}
	return d
}

// Degraded reports whether the link currently runs degraded.
func (l *Link) Degraded() bool { return l.orig != nil }

// Restore reverts a Degrade to the original link configuration, sharing
// it again with the links Connect gave it to.
func (l *Link) Restore() {
	if l.orig == nil {
		return
	}
	cfg := l.orig
	l.orig = nil
	if rec := l.A.eng.Recorder(); rec.Enabled(trace.CatLink) {
		rec.Event(trace.CatLink, "link-restore", trace.Attr{Link: l.label()})
	}
	l.applyConfig(cfg)
}

func (l *Link) applyConfig(cfg *LinkConfig) {
	l.Config = cfg
	for _, c := range l.ch {
		if c != nil {
			c.cfg = *cfg
		}
	}
	// Route costs changed; stale tables rebuild lazily. Cluster structure
	// is pinned at ComputeRoutes time, so a degraded LAN link does not
	// reshuffle clusters mid-run.
	l.A.net.invalidateRoutes()
}

// SetCrashed fails or restores a node. While crashed, the node drops
// every packet addressed to or routed through it. Crashing closes all
// listeners and aborts all connections (their blocked processes get
// ErrClosed); peers discover the failure through their own
// retransmission caps. Restoring brings the node back empty: listeners
// and connections do not survive, only the node's identity.
func (n *Node) SetCrashed(crashed bool) {
	if n.crashed == crashed {
		return
	}
	n.crashed = crashed
	if rec := n.eng.Recorder(); rec.Enabled(trace.CatLink) {
		name := "node-restore"
		if crashed {
			name = "node-crash"
		}
		rec.Event(trace.CatLink, name, trace.Attr{Host: n.Name})
	}
	ep := n.ep
	if !crashed || ep == nil {
		return
	}
	// Deterministic teardown: listeners by port, then conns by key.
	ports := make([]Port, 0, len(ep.listeners))
	for p := range ep.listeners {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	for _, p := range ports {
		ep.listeners[p].Close()
	}
	keys := make([]connKey, 0, len(ep.conns))
	for k := range ep.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.local != kj.local {
			return ki.local < kj.local
		}
		if ki.remote != kj.remote {
			return ki.remote < kj.remote
		}
		return ki.remotePort < kj.remotePort
	})
	for _, k := range keys {
		ep.conns[k].abort()
	}
	ep.dgramFrags = nil
}

// Crashed reports whether the node is crashed.
func (n *Node) Crashed() bool { return n.crashed }

func (c *channel) setDown(down bool) {
	c.down = down
	if down {
		// Everything queued or in flight is lost.
		queued := c.queue[c.head:]
		c.Dropped += int64(len(queued))
		c.src.stats.PacketsDropped += int64(len(queued))
		for _, pkt := range queued {
			c.src.freePacket(pkt)
		}
		clear(queued)
		c.queue, c.head = c.queue[:0], 0
		c.queuedBytes = 0
		c.epoch++
		c.busy = false
	}
}
