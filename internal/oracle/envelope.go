package oracle

// The flow-vs-packet agreement envelope, derived from the two network
// models' transfer laws instead of pinned from an empirical corpus.
// The flow model delivers a transfer of S wire bytes over a path with
// bottleneck bandwidth B and one-way propagation D at
//
//	t_flow(S) = S·8/B + D
//
// (plus per-connection serialization). The packet model's TCP pays two
// costs that law folds away, and both are computable from the same
// constants the transport uses (netsim.DefaultRecvWindow, DefaultMTU,
// HeaderBytes):
//
//   - Window throttling: with receive window W the steady-state packet
//     throughput is capped at W/RTT, so once the path's bandwidth-delay
//     product exceeds W a long transfer diverges by 1 − W/(B·RTT/8).
//   - Slow start: the congestion window opens from 2·mss doubling once
//     per RTT, so a transfer of about one window costs the packet path
//     log2(W/(2·mss)) round trips against the flow path's serialization
//     plus half a round trip.
//
// The derived relative envelope is the worse of the two regimes (each
// maximized over transfer size), floored for the fixed per-hop
// store-and-forward, ack-clocking, and per-message CPU-cost timing that
// dominate latency-bound exchanges; the absolute envelope covers the
// handshake/teardown round trips every connection pays regardless of
// payload. Deriving per scenario keeps the gate tight on low-latency
// grids (where the old pinned 55% bound was far looser than the models'
// real disagreement) while staying sound on long-fat paths the corpus
// happened not to draw.

import (
	"fmt"
	"math"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// EnvelopeParams are the virtual-network path extremes between the
// hosts a scenario's workload runs on — the inputs the transfer-law
// derivation needs.
type EnvelopeParams struct {
	// BottleneckBps is the smallest bottleneck bandwidth on any routed
	// path between two rank hosts.
	BottleneckBps float64
	// RTTSeconds is the largest round-trip propagation between two rank
	// hosts.
	RTTSeconds float64
}

const (
	// flowRelFloor covers divergence with no window effect at all:
	// per-hop store-and-forward the flow law folds into one
	// serialization, ack clocking, and msgcost timing shifts.
	flowRelFloor = 0.15
	// flowAbsFloorSeconds covers fixed scheduling/daemon offsets that do
	// not scale with the path.
	flowAbsFloorSeconds = 0.005
)

// DeriveEnvelope computes the agreement envelope — relative fraction of
// the packet-level time, and absolute seconds — for paths with the
// given extremes. The check accepts a divergence inside either bound.
func DeriveEnvelope(p EnvelopeParams) (rel, abs float64) {
	win := float64(netsim.DefaultRecvWindow)
	mss := float64(netsim.DefaultMTU - netsim.HeaderBytes)
	rel = flowRelFloor
	if p.BottleneckBps > 0 && p.RTTSeconds > 0 && !math.IsInf(p.BottleneckBps, 1) {
		// Throughput regime (S → ∞): packet throughput is window-capped
		// at W/RTT while the flow law serializes at the bottleneck.
		bdp := p.BottleneckBps / 8 * p.RTTSeconds
		if bdp > win {
			if r := 1 - win/bdp; r > rel {
				rel = r
			}
		}
		// Slow-start regime (S ≈ W): the packet path spends the window-
		// opening round trips; the flow path only serializes the bytes.
		nss := math.Log2(win / (2 * mss))
		tPacket := nss * p.RTTSeconds
		tFlow := win*8/p.BottleneckBps + p.RTTSeconds/2
		if tPacket > tFlow {
			if r := 1 - tFlow/tPacket; r > rel {
				rel = r
			}
		}
	}
	// Connection setup/teardown and the first slow-start rounds cost the
	// packet path a couple of round trips regardless of payload.
	abs = flowAbsFloorSeconds + 2*p.RTTSeconds
	return rel, abs
}

// ScenarioEnvelope measures a scenario's path extremes: the topology is
// built on a throwaway engine and the routed paths between the
// workload's rank hosts are walked for the largest round trip and
// smallest bottleneck. Default-LAN scenarios derive from the target
// machine spec directly (host — switch — host: two per-side delays each
// way).
func ScenarioEnvelope(s *scenario.Scenario) (EnvelopeParams, error) {
	topo := s.Topology
	if topo == nil && s.TopoGen != nil {
		spec, err := topology.Generate(*s.TopoGen)
		if err != nil {
			return EnvelopeParams{}, err
		}
		topo = spec
	}
	if topo == nil {
		if s.Target == nil {
			return EnvelopeParams{}, fmt.Errorf("oracle: scenario %q has no topology or target", s.Name)
		}
		d := s.Target.NetPerSideDelay.Seconds()
		return EnvelopeParams{BottleneckBps: s.Target.NetBandwidthBps, RTTSeconds: 4 * d}, nil
	}
	ranks := s.HostRanks
	if len(ranks) == 0 {
		// Generated topologies size their working set from the workload;
		// rank hosts are the first N in generation order (see core.Build).
		n := len(topo.Hosts)
		if s.Workload != nil && s.Workload.Ranks > 0 && s.Workload.Ranks < n {
			n = s.Workload.Ranks
		}
		// The walk is quadratic, so sample at most 64 hosts — but stride
		// across the whole working set rather than truncating it: generated
		// clusters are front-loaded, and the first 64 hosts of a large
		// working set would all sit in cluster 0, hiding every WAN
		// crossing the workload actually makes.
		const maxWalk = 64
		if n <= maxWalk {
			for _, h := range topo.Hosts[:n] {
				ranks = append(ranks, h.Name)
			}
		} else {
			for i := 0; i < maxWalk; i++ {
				ranks = append(ranks, topo.Hosts[i*(n-1)/(maxWalk-1)].Name)
			}
		}
	}
	nw, err := topo.Build(simcore.NewEngine(s.Seed))
	if err != nil {
		return EnvelopeParams{}, err
	}
	p := EnvelopeParams{BottleneckBps: math.Inf(1)}
	seen := map[string]bool{}
	for i, an := range ranks {
		if seen[an] {
			continue
		}
		seen[an] = true
		a := nw.Node(an)
		if a == nil {
			return EnvelopeParams{}, fmt.Errorf("oracle: rank host %q not in topology", an)
		}
		for j, bn := range ranks {
			if i == j || an == bn {
				continue
			}
			b := nw.Node(bn)
			if b == nil {
				return EnvelopeParams{}, fmt.Errorf("oracle: rank host %q not in topology", bn)
			}
			d, _, ok := nw.PathDelay(a, b)
			if !ok {
				continue
			}
			if rtt := 2 * d.Seconds(); rtt > p.RTTSeconds {
				p.RTTSeconds = rtt
			}
			if bw, ok := nw.PathBottleneckBps(a, b); ok && bw < p.BottleneckBps {
				p.BottleneckBps = bw
			}
		}
	}
	if math.IsInf(p.BottleneckBps, 1) {
		p.BottleneckBps = 0
	}
	return p, nil
}

// CheckEnvelope verifies flow-level vs packet-level agreement on the
// workload completion time (seconds of virtual time), under the
// envelope derived from the scenario's path extremes.
func CheckEnvelope(packetSeconds, flowSeconds float64, p EnvelopeParams) []Violation {
	rel, abs := DeriveEnvelope(p)
	diff := math.Abs(packetSeconds - flowSeconds)
	if diff <= abs || diff <= rel*packetSeconds {
		return nil
	}
	return []Violation{{Property: PropFlowEnvelope,
		Detail: fmt.Sprintf("packet-level %.4fs vs flow-level %.4fs: |Δ|=%.4fs exceeds derived %.0f%% and %.0fms (bottleneck %.0f bps, rtt %.1fms)",
			packetSeconds, flowSeconds, diff, rel*100, abs*1000, p.BottleneckBps, p.RTTSeconds*1000)}}
}
