package netsim

import (
	"fmt"

	"microgrid/internal/simcore"
)

// Cross-traffic generators create competing background load on the
// simulated network — the "network traffic models" dimension the paper
// contrasts with the Bricks project and flags as critical for Grid
// studies. Generators send unreliable datagrams so they load queues and
// links without flow control backing them off.

// TrafficGen is a running background-traffic source.
type TrafficGen struct {
	stopped bool
}

// Stop ends the generator at its next send.
func (t *TrafficGen) Stop() { t.stopped = true }

// StartCBR emits constant-bit-rate traffic from src to dst:port:
// pktBytes-sized datagrams at exactly rateBps of payload.
func StartCBR(src, dst *Node, port Port, rateBps float64, pktBytes int) (*TrafficGen, error) {
	if rateBps <= 0 || pktBytes <= 0 {
		return nil, fmt.Errorf("netsim: CBR needs positive rate and packet size")
	}
	if src.net != dst.net {
		return nil, fmt.Errorf("netsim: traffic endpoints on different networks")
	}
	interval := simcore.DurationOfSeconds(float64(pktBytes) * 8 / rateBps)
	g := &TrafficGen{}
	pr := src.eng.Spawn(fmt.Sprintf("cbr:%s->%s", src.Name, dst.Name), func(p *simcore.Proc) {
		for !g.stopped {
			p.Sleep(interval)
			if g.stopped {
				return
			}
			if err := src.SendDatagram(dst.Addr, 0, port, pktBytes, nil); err != nil {
				return
			}
		}
	})
	pr.SetDaemon(true)
	return g, nil
}

// CountingSink registers a datagram handler on node:port that counts
// arrivals, returning the counters.
func CountingSink(node *Node, port Port) (got *int64, bytes *int64) {
	var n, b int64
	node.HandleDatagrams(port, func(_ Addr, _ Port, size int, _ any) {
		n++
		b += int64(size)
	})
	return &n, &b
}
