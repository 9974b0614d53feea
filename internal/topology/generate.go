package topology

import (
	"fmt"
	"math/rand"
	"strconv"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// Seeded topology generation: a .scenario file can declare a grid far
// larger than anyone wants to write out host-by-host ("topology generate
// kind=star hosts=100000 seed=7"). The families mirror the fuzzing
// generator's — a star of campus clusters around a core router, and a
// fat tree whose edge LANs multipath across several cores — but sized by
// host count instead of fuzz-scale draws. Generation is deterministic in
// the GenSpec, so two runs of the same scenario build byte-identical
// grids.

// Generator kinds.
const (
	GenStar    = "star"
	GenFatTree = "fat-tree"
)

// MaxGeneratedHosts caps Generate so a typo'd host count fails with an
// actionable message instead of exhausting memory. 2^18 hosts comfortably
// covers the 100k-host scale experiments; raise it deliberately if a
// bigger study needs it.
const MaxGeneratedHosts = 1 << 18

// maxHostsPerCluster is set by the generated address scheme: hosts of
// cluster i are numbered into the last address byte.
const maxHostsPerCluster = 254

// GenSpec parameterizes topology generation.
type GenSpec struct {
	// Kind is the family: GenStar or GenFatTree.
	Kind string
	// Hosts is the total host count (required, ≥ 1).
	Hosts int
	// Seed drives the deterministic parameter draws (WAN delays, core
	// counts).
	Seed int64
	// Clusters overrides the derived cluster count (0: about one cluster
	// per 192 hosts, at least 2).
	Clusters int
	// WANFlow runs every wide-area link at flow fidelity, leaving campus
	// LANs packet-level — the mixed-fidelity scale configuration.
	WANFlow bool
}

// Validate checks the generation parameters without generating.
func (g *GenSpec) Validate() error {
	switch g.Kind {
	case GenStar, GenFatTree:
	default:
		return fmt.Errorf("topology generate: unknown kind %q (want %s or %s)", g.Kind, GenStar, GenFatTree)
	}
	if g.Hosts < 1 {
		return fmt.Errorf("topology generate: hosts must be at least 1 (got %d)", g.Hosts)
	}
	if g.Hosts > MaxGeneratedHosts {
		return fmt.Errorf("topology generate: %d hosts exceeds the %d-host cap; reduce hosts= or raise topology.MaxGeneratedHosts deliberately", g.Hosts, MaxGeneratedHosts)
	}
	if g.Clusters < 0 {
		return fmt.Errorf("topology generate: clusters must be positive (got %d)", g.Clusters)
	}
	if g.Clusters > 0 {
		if per := (g.Hosts + g.Clusters - 1) / g.Clusters; per > maxHostsPerCluster {
			return fmt.Errorf("topology generate: %d hosts across %d clusters is %d hosts per cluster; the address scheme caps clusters at %d hosts — use at least %d clusters",
				g.Hosts, g.Clusters, per, maxHostsPerCluster, (g.Hosts+maxHostsPerCluster-1)/maxHostsPerCluster)
		}
	}
	return nil
}

// clusterCount resolves the effective cluster count.
func (g *GenSpec) clusterCount() int {
	if g.Clusters > 0 {
		return g.Clusters
	}
	k := (g.Hosts + 191) / 192
	if k < 2 {
		k = 2
	}
	return k
}

// Generate builds the topology spec for g. The result Validates clean by
// construction.
func Generate(g GenSpec) (*Spec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(g.Seed))
	k := g.clusterCount()
	switch g.Kind {
	case GenStar:
		return genStar(rng, g, k), nil
	case GenFatTree:
		return genFatTree(rng, g, k), nil
	}
	panic("unreachable")
}

// genWANDelay draws a wide-area one-way delay in [2ms, 20ms] — always a
// WAN hop under netsim.DefaultWANThreshold, so every cluster is its own
// routing/partitioning cluster.
func genWANDelay(rng *rand.Rand) simcore.Duration {
	return simcore.Duration(2+rng.Intn(19)) * simcore.Millisecond
}

// genWANFidelity is the fidelity applied to wide-area links.
func genWANFidelity(g GenSpec) netsim.Fidelity {
	if g.WANFlow {
		return netsim.FidelityFlow
	}
	return netsim.FidelityPacket
}

// hostAddr numbers cluster i's host j: 16+i/256 . i%256 . 1 . j+1.
func hostAddr(i, j int) string {
	var b [15]byte
	out := strconv.AppendInt(b[:0], int64(16+i/256), 10)
	out = append(out, '.')
	out = strconv.AppendInt(out, int64(i%256), 10)
	out = append(out, ".1."...)
	out = strconv.AppendInt(out, int64(j+1), 10)
	return string(out)
}

// splitHosts spreads total hosts over k clusters, front-loaded so the
// first clusters are full — a workload touching the first N hosts stays
// within the fewest clusters.
func splitHosts(total, k int) []int {
	per := (total + k - 1) / k
	out := make([]int, k)
	left := total
	for i := range out {
		n := per
		if n > left {
			n = left
		}
		out[i] = n
		left -= n
	}
	return out
}

// genStar builds k campus clusters (hosts — switch — gateway) around one
// core router, the generated-at-scale version of the fuzzer's
// star-of-clusters family.
func genStar(rng *rand.Rand, g GenSpec, k int) *Spec {
	spec := &Spec{
		Name:    fmt.Sprintf("gen-star-%dx%d-s%d", g.Hosts, k, g.Seed),
		Hosts:   make([]HostSpec, 0, g.Hosts),
		Routers: make([]string, 0, 1+2*k),
		Links:   make([]LinkSpec, 0, g.Hosts+2*k),
	}
	// Router r sits at position g.Hosts+r: the core, then each
	// cluster's switch and gateway.
	spec.Routers = append(spec.Routers, "core")
	wanFid := genWANFidelity(g)
	for i, hn := range splitHosts(g.Hosts, k) {
		c := "c" + strconv.Itoa(i)
		sw, gw := c+"sw", c+"gw"
		swPos, gwPos := g.Hosts+len(spec.Routers), g.Hosts+len(spec.Routers)+1
		spec.Routers = append(spec.Routers, sw, gw)
		for j := 0; j < hn; j++ {
			name := c + "h" + strconv.Itoa(j)
			spec.Hosts = append(spec.Hosts, HostSpec{Name: name, Addr: hostAddr(i, j)})
			spec.addLink(LinkSpec{
				A: name, B: sw, BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond,
			}, len(spec.Hosts)-1, swPos)
		}
		spec.addLink(LinkSpec{
			A: sw, B: gw, BandwidthBps: 1e9, Delay: 100 * simcore.Microsecond,
		}, swPos, gwPos)
		access := LinkSpec{A: gw, B: "core", Delay: genWANDelay(rng), Fidelity: wanFid}
		if rng.Intn(2) == 0 {
			access.BandwidthBps = OC3Bps
		} else {
			access.BandwidthBps = OC12Bps
		}
		spec.addLink(access, gwPos, g.Hosts)
	}
	return spec
}

// genFatTree builds k edge LANs whose switches each uplink to a few core
// routers over wide-area links — a 2-level multipath core.
func genFatTree(rng *rand.Rand, g GenSpec, k int) *Spec {
	cores := 2 + rng.Intn(3)
	spec := &Spec{
		Name:    fmt.Sprintf("gen-fattree-%dx%dc%d-s%d", g.Hosts, k, cores, g.Seed),
		Hosts:   make([]HostSpec, 0, g.Hosts),
		Routers: make([]string, 0, cores+k),
		Links:   make([]LinkSpec, 0, g.Hosts+cores*k),
	}
	wanFid := genWANFidelity(g)
	for m := 0; m < cores; m++ {
		spec.Routers = append(spec.Routers, "core"+strconv.Itoa(m))
	}
	// Router r sits at position g.Hosts+r: the cores, then each edge
	// switch.
	for i, hn := range splitHosts(g.Hosts, k) {
		e := "e" + strconv.Itoa(i)
		sw, swPos := e+"sw", g.Hosts+len(spec.Routers)
		spec.Routers = append(spec.Routers, sw)
		for j := 0; j < hn; j++ {
			name := e + "h" + strconv.Itoa(j)
			spec.Hosts = append(spec.Hosts, HostSpec{Name: name, Addr: hostAddr(i, j)})
			spec.addLink(LinkSpec{
				A: name, B: sw, BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond,
			}, len(spec.Hosts)-1, swPos)
		}
		for m, core := range spec.Routers[:cores] {
			spec.addLink(LinkSpec{
				A: sw, B: core,
				BandwidthBps: OC12Bps, Delay: genWANDelay(rng), Fidelity: wanFid,
			}, swPos, g.Hosts+m)
		}
	}
	return spec
}
