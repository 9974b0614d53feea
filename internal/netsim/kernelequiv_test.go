package netsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// The heap-ordered routing kernels must choose exactly the next hops the
// linear-scan kernels chose, ties included; routeequiv_test.go checks
// only path costs, which a tie-break change would leave equal. These
// tests compare full next-hop tables and cluster order against the
// linear-scan copies in linearscan_test.go.

// tieGraph builds a grid made to tie: campuses whose hosts reach two
// gateways through two switches over equal-delay LAN links, gateways
// dual-homed onto a ring of backbone routers over equal-delay WAN links,
// a doubled backbone link, and an unreachable island. Nodes and links
// are added in an order shuffled by seed, so creation order and name
// order disagree.
func tieGraph(seed int64) *netsim.Network {
	const campuses, hostsPer, backbones = 6, 4, 4
	lan := netsim.LinkConfig{BandwidthBps: 100e6, Delay: 10 * simcore.Microsecond}
	wan := netsim.LinkConfig{BandwidthBps: 155e6, Delay: 5 * simcore.Millisecond}
	type node struct {
		name string
		host bool
	}
	type link struct {
		a, b string
		cfg  netsim.LinkConfig
	}
	var nodes []node
	var links []link
	for k := 0; k < backbones; k++ {
		nodes = append(nodes, node{name: fmt.Sprintf("bb%d", k)})
		links = append(links, link{fmt.Sprintf("bb%d", k), fmt.Sprintf("bb%d", (k+1)%backbones), wan})
	}
	links = append(links, link{"bb0", "bb1", wan})
	for i := 0; i < campuses; i++ {
		sw := [2]string{fmt.Sprintf("c%ds0", i), fmt.Sprintf("c%ds1", i)}
		gw := [2]string{fmt.Sprintf("c%dg0", i), fmt.Sprintf("c%dg1", i)}
		for m := 0; m < 2; m++ {
			nodes = append(nodes, node{name: sw[m]}, node{name: gw[m]})
			for _, g := range gw {
				links = append(links, link{sw[m], g, lan})
			}
			links = append(links, link{gw[m], fmt.Sprintf("bb%d", (i+m)%backbones), wan})
		}
		for j := 0; j < hostsPer; j++ {
			h := fmt.Sprintf("c%dh%d", i, j)
			nodes = append(nodes, node{name: h, host: true})
			for _, s := range sw {
				links = append(links, link{h, s, lan})
			}
		}
	}
	nodes = append(nodes, node{name: "zz0", host: true}, node{name: "zz1", host: true})
	links = append(links, link{"zz0", "zz1", lan})

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	nw := netsim.New(simcore.NewEngine(1))
	for i, nd := range nodes {
		if nd.host {
			nw.AddHost(nd.name, netsim.MakeAddr(10, 0, byte(i>>8), byte(i)))
		} else {
			nw.AddRouter(nd.name)
		}
	}
	for _, l := range links {
		a, b := nw.Node(l.a), nw.Node(l.b)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		nw.Connect(a, b, l.cfg)
	}
	return nw
}

// TestRoutingKernelsMatchLinearScan compares every ordered pair's next
// hop on tie-heavy grids as built, then across the epoch rebuilds that
// link failure, restore, Degrade and Restore trigger.
func TestRoutingKernelsMatchLinearScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		nw := tieGraph(seed)
		all := nw.Nodes()
		check := func(stage string) {
			t.Helper()
			if err := netsim.CheckLinearScanRouting(nw, all, all); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, stage, err)
			}
		}
		check("as built")
		rng := rand.New(rand.NewSource(seed))
		links := nw.Links()
		var failed, degraded []*netsim.Link
		for _, i := range rng.Perm(len(links))[:4] {
			failed = append(failed, links[i])
		}
		for _, l := range failed {
			l.SetDown(true)
		}
		check("after failures")
		for _, l := range failed {
			l.SetDown(false)
		}
		check("after restore")
		// Halve some WAN delays and triple some LAN ones: both stay on
		// their side of the cluster threshold, and both break ties.
		for _, i := range rng.Perm(len(links))[:6] {
			l := links[i]
			factor := 3.0
			if l.Config.Delay >= netsim.DefaultWANThreshold {
				factor = 0.5
			}
			l.Degrade(0, factor, -1)
			degraded = append(degraded, l)
		}
		check("after degrade")
		for _, l := range degraded {
			l.Restore()
		}
		check("after degrade restore")
	}
}

// TestRoutingKernelsMatchLinearScanAtScale compares sampled next hops on
// the benchmark's 100k-host, 12,500-campus star: sources in three
// campuses spread across the name order plus the core, destinations a
// stride sample of the whole grid.
func TestRoutingKernelsMatchLinearScanAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-node network")
	}
	topo, err := topology.Generate(topology.GenSpec{
		Kind: topology.GenStar, Hosts: 100000, Seed: 7, Clusters: 12500, WANFlow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := topo.Build(simcore.NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*netsim.Node
	for _, c := range []int{0, 6249, 12499} {
		for _, suffix := range []string{"h0", "h7", "sw", "gw"} {
			srcs = append(srcs, nw.Node(fmt.Sprintf("c%d%s", c, suffix)))
		}
	}
	srcs = append(srcs, nw.Node("core"))
	dsts := append([]*netsim.Node(nil), srcs...)
	all := nw.Nodes()
	for i := 0; i < len(all); i += 97 {
		dsts = append(dsts, all[i])
	}
	for _, nd := range srcs {
		if nd == nil {
			t.Fatal("sampled source not in the generated star")
		}
	}
	if err := netsim.CheckLinearScanRouting(nw, srcs, dsts); err != nil {
		t.Fatal(err)
	}
}
