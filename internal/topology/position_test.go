package topology

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// Apply wires link endpoints by their recorded spec positions. These
// tests pin that the generators and the parser record the true
// positions, and that wiring by position builds the same network as
// wiring by name: the same nodes, links and interfaces in the same
// order, and the same routes.

// positionSpecs returns a generated star, a generated fat tree and
// parsed topologies, one of them declaring routers before hosts and
// linking nodes declared later.
func positionSpecs(t *testing.T) map[string]*Spec {
	t.Helper()
	specs := map[string]*Spec{}
	for _, g := range []GenSpec{
		{Kind: GenStar, Hosts: 300, Seed: 3},
		{Kind: GenFatTree, Hosts: 200, Seed: 5, WANFlow: true},
	} {
		s, err := Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		specs[g.Kind] = s
	}
	parsed, err := ParseSpecAt("<topology>", 1, strings.NewReader(`topology mixed
router core
link h1 sw 100Mbps 25us
host h1 10.0.0.1
router sw
host h2 10.0.0.2
link h2 sw 100Mbps 25us
link sw core 1Gbps 1ms
link core h2 10Mbps 5ms
`))
	if err != nil {
		t.Fatal(err)
	}
	specs["parsed"] = parsed
	paths, _ := filepath.Glob(filepath.Join("testdata", "generated", "*.topo"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpecAt("<topology>", 1, strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		specs[filepath.Base(p)] = s
	}
	return specs
}

// nodeNames lists the spec's nodes in position order: hosts, then
// routers.
func nodeNames(s *Spec) []string {
	var out []string
	for _, h := range s.Hosts {
		out = append(out, h.Name)
	}
	return append(out, s.Routers...)
}

// withoutPositions copies s with every link's positions cleared, as a
// hand-built spec has them.
func withoutPositions(s *Spec) *Spec {
	c := *s
	c.Links = append([]LinkSpec(nil), s.Links...)
	for i := range c.Links {
		c.Links[i].pos = [2]int32{}
	}
	return &c
}

func TestSpecRecordsPositions(t *testing.T) {
	for name, s := range positionSpecs(t) {
		names := nodeNames(s)
		for i, l := range s.Links {
			for e, end := range [2]string{l.A, l.B} {
				if p := l.pos[e]; p < 1 || int(p) > len(names) || names[p-1] != end {
					t.Fatalf("%s: link %d end %q recorded at position %d", name, i, end, p)
				}
			}
		}
	}
}

func TestApplyByPositionMatchesByName(t *testing.T) {
	for name, s := range positionSpecs(t) {
		byPos, err := s.Build(simcore.NewEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		byName, err := withoutPositions(s).Build(simcore.NewEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameNetwork(byPos, byName); err != "" {
			t.Fatalf("%s: %s", name, err)
		}
	}
}

// A position whose node no longer carries the endpoint's name, as after
// a link is re-pointed by hand, falls back to the name.
func TestApplyStalePositionUsesName(t *testing.T) {
	s, err := Generate(GenSpec{Kind: GenStar, Hosts: 40, Seed: 1, Clusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Links[0].B != "c0sw" {
		t.Fatalf("first link ends at %q, want c0sw", s.Links[0].B)
	}
	s.Links[0].B = "c1sw"
	nw, err := s.Build(simcore.NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}
	if l := nw.Links()[0]; l.A.Name != s.Links[0].A || l.B.Name != "c1sw" {
		t.Fatalf("re-pointed link wired %s--%s, want %s--c1sw", l.A.Name, l.B.Name, s.Links[0].A)
	}
}

// sameNetwork compares two networks node by node, link by link, and by
// the next hop from every node to every node. Interfaces are appended in
// link order, so equal link lists mean equal interface lists once each
// node's list is whole: FindLink, which scans one endpoint's interfaces,
// must find every link's earliest twin in both. It returns the first
// difference, or "".
func sameNetwork(x, y *netsim.Network) string {
	if x.NodeCount() != y.NodeCount() || len(x.Links()) != len(y.Links()) {
		return "sizes differ"
	}
	for i := 0; i < x.NodeCount(); i++ {
		a, b := x.NodeAt(i), y.NodeAt(i)
		if a.Name != b.Name || a.Addr != b.Addr || a.Router != b.Router {
			return "node " + a.Name + " differs from " + b.Name
		}
	}
	for i, la := range x.Links() {
		lb := y.Links()[i]
		if la.A.Index() != lb.A.Index() || la.B.Index() != lb.B.Index() || *la.Config != *lb.Config {
			return "link " + la.A.Name + "--" + la.B.Name + " differs"
		}
	}
	first := map[[2]int]int{}
	for i, l := range x.Links() {
		a, b := l.A.Index(), l.B.Index()
		if _, ok := first[[2]int{a, b}]; !ok {
			first[[2]int{a, b}], first[[2]int{b, a}] = i, i
		}
	}
	for _, nw := range []*netsim.Network{x, y} {
		for _, l := range nw.Links() {
			if got, want := nw.FindLink(l.A.Name, l.B.Name), nw.Links()[first[[2]int{l.A.Index(), l.B.Index()}]]; got != want {
				return "interfaces of " + l.A.Name + " or " + l.B.Name + " lose their link"
			}
		}
	}
	for i := 0; i < x.NodeCount(); i++ {
		for j := 0; j < x.NodeCount(); j++ {
			if i == j {
				continue
			}
			hx := x.NextHopName(x.NodeAt(i), x.NodeAt(j))
			if hy := y.NextHopName(y.NodeAt(i), y.NodeAt(j)); hx != hy {
				return "route " + x.NodeAt(i).Name + "->" + x.NodeAt(j).Name + " via " + hx + " vs " + hy
			}
		}
	}
	return ""
}
