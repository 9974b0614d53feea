// Package topology builds simulated network topologies for MicroGrid
// experiments: the paper's fictional vBNS wide-area distributed cluster
// testbed (Fig. 13) and seeded star and fat-tree grids of campus
// clusters. It also parses a small text configuration format so
// arbitrary topologies can be described in files, the way the MicroGrid
// "reads desired network configuration files and inputs a network
// configuration for NSE".
package topology

import (
	"fmt"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// Spec describes a topology to build: named hosts, routers/switches, and
// links between them.
type Spec struct {
	Name    string
	Hosts   []HostSpec
	Routers []string
	Links   []LinkSpec
}

// HostSpec names a host and its address.
type HostSpec struct {
	Name string
	Addr string // dotted quad
}

// LinkSpec joins two named nodes.
type LinkSpec struct {
	A, B         string
	BandwidthBps float64
	Delay        simcore.Duration
	QueueBytes   int
	LossProb     float64
	// Fidelity selects the link's simulation fidelity: packet-level (the
	// default) or analytic flow-level.
	Fidelity netsim.Fidelity
	// pos holds A's and B's positions in the spec's node order (hosts,
	// then routers), plus one, as the generators and the parser record
	// them; zero is unrecorded, and Apply then looks the name up.
	pos [2]int32
}

// Validate checks structural invariants that hold independently of any
// Network: unique node names, unique host addresses, no self-links, and
// every link endpoint declared as a host or router. ParseSpecAt enforces
// the same rules with positioned errors; Validate covers specs built
// programmatically (or mutated after parse).
func (s *Spec) Validate() error {
	decl := map[string]bool{}
	for _, h := range s.Hosts {
		if decl[h.Name] {
			return fmt.Errorf("topology %s: duplicate node name %q", s.Name, h.Name)
		}
		decl[h.Name] = true
	}
	addrs := map[string]bool{}
	for _, h := range s.Hosts {
		if addrs[h.Addr] {
			return fmt.Errorf("topology %s: duplicate host address %q", s.Name, h.Addr)
		}
		addrs[h.Addr] = true
	}
	for _, r := range s.Routers {
		if decl[r] {
			return fmt.Errorf("topology %s: duplicate node name %q", s.Name, r)
		}
		decl[r] = true
	}
	for _, l := range s.Links {
		if l.A == l.B {
			return fmt.Errorf("topology %s: self-link %q <-> %q", s.Name, l.A, l.B)
		}
		for _, end := range []string{l.A, l.B} {
			if !decl[end] {
				return fmt.Errorf("topology %s: link endpoint %q is not a declared host or router", s.Name, end)
			}
		}
	}
	return nil
}

// addLink appends l with its endpoints at positions a and b of the spec's
// node order (hosts, then routers).
func (s *Spec) addLink(l LinkSpec, a, b int) {
	l.pos = [2]int32{int32(a) + 1, int32(b) + 1}
	s.Links = append(s.Links, l)
}

// Build instantiates the spec on a fresh Network bound to eng.
func (s *Spec) Build(eng *simcore.Engine) (*netsim.Network, error) {
	nw := netsim.New(eng)
	if err := s.Apply(nw, nil); err != nil {
		return nil, err
	}
	nw.ComputeRoutes()
	return nw, nil
}

// Apply adds the spec's nodes and links to an existing network. When scale
// is non-nil every link config passes through it first — this is how a
// virtual.Grid materializes a topology with simulation-rate scaling.
// Routes are not recomputed.
//
// A link endpoint is found by its recorded spec position when the node
// there carries the endpoint's name, else by name, so the two always
// build the same network. Every node's interface list is presized from
// the spec's degree counts.
func (s *Spec) Apply(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error {
	base, count := nw.NodeCount(), len(s.Hosts)+len(s.Routers)
	nw.Grow(count, len(s.Links))
	for _, h := range s.Hosts {
		addr, err := netsim.ParseAddr(h.Addr)
		if err != nil {
			return fmt.Errorf("topology %s: host %s: %v", s.Name, h.Name, err)
		}
		nw.AddHost(h.Name, addr)
	}
	for _, r := range s.Routers {
		nw.AddRouter(r)
	}
	resolve := func(pos int32, name string) *netsim.Node {
		if pos > 0 && int(pos) <= count {
			if nd := nw.NodeAt(base + int(pos) - 1); nd.Name == name {
				return nd
			}
		}
		return nw.Node(name)
	}
	degree := make([]int32, count)
	for _, l := range s.Links {
		a, b := resolve(l.pos[0], l.A), resolve(l.pos[1], l.B)
		if a == nil || b == nil {
			return fmt.Errorf("topology %s: link %s--%s references unknown node", s.Name, l.A, l.B)
		}
		if !(l.BandwidthBps > 0) {
			return fmt.Errorf("topology %s: link %s--%s needs positive bandwidth, got %g", s.Name, l.A, l.B, l.BandwidthBps)
		}
		for _, nd := range [2]*netsim.Node{a, b} {
			if p := nd.Index() - base; p >= 0 {
				degree[p]++
			}
		}
	}
	nw.ReserveIfaces(base, degree)
	for _, l := range s.Links {
		cfg := netsim.LinkConfig{
			BandwidthBps: l.BandwidthBps,
			Delay:        l.Delay,
			QueueBytes:   l.QueueBytes,
			LossProb:     l.LossProb,
			Fidelity:     l.Fidelity,
		}
		if scale != nil {
			cfg = scale(cfg)
		}
		nw.Connect(resolve(l.pos[0], l.A), resolve(l.pos[1], l.B), cfg)
	}
	return nil
}

// OC bandwidths for the vBNS testbed.
const (
	OC3Bps  = 155e6
	OC12Bps = 622e6
)

// VBNSConfig parameterizes the paper's fictional vBNS distributed-cluster
// testbed (Fig. 13): two department LANs (UCSD CSE and UIUC CS) joined
// across a wide-area backbone traversing "LAN, OC3, and OC12 links as well
// as several routers". BottleneckBps varies the major WAN link for the
// Fig. 14 sweep (622 Mb/s → 155 Mb/s → 10 Mb/s).
type VBNSConfig struct {
	// HostsPerSite is the number of hosts in each department LAN.
	HostsPerSite int
	// LANBandwidthBps is the department LAN speed (default 100 Mb/s).
	LANBandwidthBps float64
	// BottleneckBps is the varied major WAN link (default OC12).
	BottleneckBps float64
	// BackboneDelay is the one-way coast-to-coast propagation delay across
	// the backbone (default 28 ms, a realistic San Diego–Urbana path).
	BackboneDelay simcore.Duration
}

// VBNSSpec constructs the testbed's topology spec:
//
//	ucsd hosts — ucsd-switch — ucsd-gw —OC3— vbns-west —BOTTLENECK— vbns-east —OC3— uiuc-gw — uiuc-switch — uiuc hosts
//
// UCSD hosts get 1.11.11.x addresses; UIUC hosts 1.22.22.x (virtual-style
// prefixes like the paper's GIS examples).
func VBNSSpec(cfg VBNSConfig) (*Spec, error) {
	if cfg.HostsPerSite <= 0 {
		return nil, fmt.Errorf("topology: vBNS needs at least one host per site")
	}
	if cfg.LANBandwidthBps == 0 {
		cfg.LANBandwidthBps = 100e6
	}
	if cfg.BottleneckBps == 0 {
		cfg.BottleneckBps = OC12Bps
	}
	if cfg.BackboneDelay == 0 {
		cfg.BackboneDelay = 28 * simcore.Millisecond
	}
	s := &Spec{Name: "vbns"}
	lanDelay := 25 * simcore.Microsecond
	for _, sp := range []struct{ site, prefix string }{{"ucsd", "1.11.11"}, {"uiuc", "1.22.22"}} {
		site, prefix := sp.site, sp.prefix
		s.Routers = append(s.Routers, site+"-switch", site+"-gw")
		for i := 0; i < cfg.HostsPerSite; i++ {
			name := fmt.Sprintf("%s%d", site, i)
			s.Hosts = append(s.Hosts, HostSpec{Name: name, Addr: fmt.Sprintf("%s.%d", prefix, i+1)})
			s.Links = append(s.Links, LinkSpec{
				A: name, B: site + "-switch",
				BandwidthBps: cfg.LANBandwidthBps, Delay: lanDelay,
			})
		}
		// Campus link from department switch to the campus gateway.
		s.Links = append(s.Links, LinkSpec{
			A: site + "-switch", B: site + "-gw",
			BandwidthBps: cfg.LANBandwidthBps, Delay: 100 * simcore.Microsecond,
		})
	}
	s.Routers = append(s.Routers, "vbns-west", "vbns-east")
	// Campus to backbone: OC3 access circuits, ~1 ms each.
	s.Links = append(s.Links,
		LinkSpec{A: "ucsd-gw", B: "vbns-west", BandwidthBps: OC3Bps, Delay: simcore.Millisecond},
		LinkSpec{A: "uiuc-gw", B: "vbns-east", BandwidthBps: OC3Bps, Delay: simcore.Millisecond},
		// The varied major WAN link.
		LinkSpec{A: "vbns-west", B: "vbns-east", BandwidthBps: cfg.BottleneckBps,
			Delay: cfg.BackboneDelay, QueueBytes: 512 * 1024},
	)
	return s, nil
}

// BuildVBNS constructs the testbed on a fresh network.
func BuildVBNS(eng *simcore.Engine, cfg VBNSConfig) (*netsim.Network, error) {
	spec, err := VBNSSpec(cfg)
	if err != nil {
		return nil, err
	}
	return spec.Build(eng)
}
