package netsim_test

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/scengen"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// The hierarchical router's contract: on every topology the simulator
// actually runs — the committed scenario corpus, the generator's
// star/fat-tree families, and topology.Generate's scale specs — the
// next-hop chains must reproduce the flat all-pairs model exactly. The
// reference below IS the flat model: one Dijkstra per source over the
// whole graph with the documented cost (link delay plus a 1µs hop
// penalty), the O(N²) table the hierarchy replaced.

// testHopPenalty mirrors netsim's per-hop tie-break cost.
const testHopPenalty = simcore.Microsecond

// flatGraph is the reference adjacency: node name → neighbor → min link
// delay (parallel links collapse to the cheapest, which is also the one
// either router would choose).
type flatGraph map[string]map[string]simcore.Duration

func specGraph(spec *topology.Spec) flatGraph {
	g := flatGraph{}
	add := func(name string) {
		if g[name] == nil {
			g[name] = map[string]simcore.Duration{}
		}
	}
	for _, h := range spec.Hosts {
		add(h.Name)
	}
	for _, r := range spec.Routers {
		add(r)
	}
	edge := func(a, b string, d simcore.Duration) {
		if cur, ok := g[a][b]; !ok || d < cur {
			g[a][b] = d
		}
	}
	for _, l := range spec.Links {
		edge(l.A, l.B, l.Delay)
		edge(l.B, l.A, l.Delay)
	}
	return g
}

// flatDistances is Dijkstra from src with the flat model's cost.
func (g flatGraph) flatDistances(src string) map[string]simcore.Duration {
	dist := map[string]simcore.Duration{src: 0}
	done := map[string]bool{}
	for {
		u, found := "", false
		var best simcore.Duration
		for name, d := range dist {
			if done[name] {
				continue
			}
			if !found || d < best || (d == best && name < u) {
				u, best, found = name, d, true
			}
		}
		if !found {
			break
		}
		done[u] = true
		for v, d := range g[u] {
			cost := best + d + testHopPenalty
			if cur, ok := dist[v]; !ok || cost < cur {
				dist[v] = cost
			}
		}
	}
	return dist
}

// checkTopologyRouting builds spec and compares every sampled ordered
// pair: hop-latency sum plus hop penalties along the hierarchical chain
// must equal the flat shortest distance, and reachability must agree.
// stride samples sources/destinations for big specs (1 = all pairs).
func checkTopologyRouting(t *testing.T, label string, spec *topology.Spec, stride int) {
	t.Helper()
	eng := simcore.NewEngine(1)
	nw, err := spec.Build(eng)
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	g := specGraph(spec)
	var names []string
	for _, h := range spec.Hosts {
		names = append(names, h.Name)
	}
	names = append(names, spec.Routers...)
	checked := 0
	for i := 0; i < len(names); i += stride {
		src := names[i]
		a := nw.Node(src)
		if a == nil {
			t.Fatalf("%s: node %q not built", label, src)
		}
		dist := g.flatDistances(src)
		for j := 0; j < len(names); j += stride {
			dst := names[j]
			if src == dst {
				continue
			}
			b := nw.Node(dst)
			d, hops, ok := nw.PathDelay(a, b)
			want, reach := dist[dst]
			if ok != reach {
				t.Fatalf("%s: %s→%s: hierarchical reachable=%v, flat reachable=%v",
					label, src, dst, ok, reach)
			}
			if !ok {
				continue
			}
			if got := d + simcore.Duration(hops)*testHopPenalty; got != want {
				t.Fatalf("%s: %s→%s: hierarchical path costs %v (%v over %d hops), flat shortest is %v",
					label, src, dst, got, d, hops, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no pairs checked", label)
	}
}

// committedTopologies parses every committed scenario and yields the
// ones that declare an explicit topology.
func committedTopologies(t *testing.T) map[string]*topology.Spec {
	t.Helper()
	out := map[string]*topology.Spec{}
	for _, pattern := range []string{
		"../../examples/*/*.scenario",
		"../scenario/testdata/generated/*.scenario",
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := scenario.ParseString(string(data))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if s.Topology != nil {
				out[filepath.Base(path)] = s.Topology
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no committed topologies found")
	}
	return out
}

// TestHierarchicalRoutingMatchesFlat is the routing equivalence property
// over the committed corpus and fifty generator seeds.
func TestHierarchicalRoutingMatchesFlat(t *testing.T) {
	for name, spec := range committedTopologies(t) {
		checkTopologyRouting(t, name, spec, 1)
	}
	for seed := int64(0); seed < 50; seed++ {
		s, _ := scengen.Generate(seed, scengen.Options{Quick: true})
		checkTopologyRouting(t, s.Name, s.Topology, 1)
	}
}

// TestHierarchicalRoutingMatchesFlatGenerated covers topology.Generate's
// scale families, sampling node pairs (the flat reference is quadratic —
// the thing the hierarchy exists to avoid).
func TestHierarchicalRoutingMatchesFlatGenerated(t *testing.T) {
	for _, spec := range []topology.GenSpec{
		{Kind: topology.GenStar, Hosts: 900, Seed: 7},
		{Kind: topology.GenFatTree, Hosts: 900, Seed: 11},
		{Kind: topology.GenStar, Hosts: 1200, Seed: 3, WANFlow: true},
	} {
		topo, err := topology.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkTopologyRouting(t, spec.Kind, topo, 17)
	}
}

// Routing state must stay sub-quadratic in practice: an untouched
// network holds none, and a single cross-campus walk materializes only
// the tables of the clusters on its path — at the default cluster count
// and at the benchmark's 12,500 campuses.
func TestRouteStateLazy(t *testing.T) {
	// One cross-grid walk touches the clusters on the path, not the
	// whole grid: far below one flat all-pairs row per node (8 bytes per
	// destination would be 800MB for 100k; even N×8 here is 80KB). At
	// 12,500 campuses the limit adds room for three 24-byte-per-cluster
	// egress rows.
	for _, tc := range []struct {
		g     topology.GenSpec
		bytes int64
	}{
		{topology.GenSpec{Kind: topology.GenStar, Hosts: 10000, Seed: 1}, 64 << 10},
		{topology.GenSpec{Kind: topology.GenStar, Hosts: 100000, Seed: 7, Clusters: 12500, WANFlow: true},
			64<<10 + 3*24*12501},
	} {
		g := tc.g
		if testing.Short() && g.Hosts > 10000 {
			continue // builds a 100k-node network
		}
		topo, err := topology.Generate(g)
		if err != nil {
			t.Fatal(err)
		}
		eng := simcore.NewEngine(1)
		nw, err := topo.Build(eng)
		if err != nil {
			t.Fatal(err)
		}
		nw.ComputeRoutes()
		if got := nw.RouteStateBytes(); got != 0 {
			t.Fatalf("%d hosts: routed-but-untouched network holds %d bytes of tables", g.Hosts, got)
		}
		a, b := nw.Node(topo.Hosts[0].Name), nw.Node(topo.Hosts[len(topo.Hosts)-1].Name)
		if _, _, ok := nw.PathDelay(a, b); !ok {
			t.Fatal("generated hosts unreachable")
		}
		// Egress rows exist only for the clusters on the path: source
		// campus, core, destination campus.
		clusters := nw.ClusterIDs().Len()
		if got := nw.EgressRowsBuilt(); got > 3 {
			t.Fatalf("%d hosts: one path walk built %d egress rows of %d clusters", g.Hosts, got, clusters)
		}
		if got, lim := nw.RouteStateBytes(), tc.bytes; got > lim {
			t.Fatalf("%d hosts: one path walk materialized %d bytes of routing state (limit %d)", g.Hosts, got, lim)
		}
	}
}

// The shards of a partitioned run share one Network's lazily built
// routing tables: several goroutines may look up next hops at once, each
// building tables the others read. Run under -race, this checks the
// tables are published safely; the hops must match a serial walk.
func TestRoutingConcurrentLookups(t *testing.T) {
	spec, err := topology.Generate(topology.GenSpec{Kind: topology.GenStar, Hosts: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *netsim.Network {
		nw, err := spec.Build(simcore.NewEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		nw.ComputeRoutes()
		return nw
	}
	var names []string
	for i, h := range spec.Hosts {
		if i%7 == 0 {
			names = append(names, h.Name)
		}
	}
	names = append(names, spec.Routers...)
	walk := func(nw *netsim.Network, first int) []string {
		hops := make([]string, 0, len(names)*len(names))
		for i := range names {
			a := nw.Node(names[(first+i)%len(names)])
			for _, dst := range names {
				hops = append(hops, nw.NextHopName(a, nw.Node(dst)))
			}
		}
		return hops
	}
	want := walk(build(), 0)
	nw := build()
	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = walk(nw, w*len(names)/workers)
		}(w)
	}
	wg.Wait()
	for w, hops := range got {
		// Worker w walked the sources rotated by its offset.
		off := (w * len(names) / workers) * len(names)
		for k := range hops {
			if hops[k] != want[(off+k)%len(want)] {
				t.Fatalf("worker %d, lookup %d: next hop %q, serial walk gives %q", w, k, hops[k], want[(off+k)%len(want)])
			}
		}
	}
}

// TestIdleLinksOpenNoChannel pins the lazy channels at scale: a 10k-host
// generated star wires, routes and answers path queries with no channel
// open, and one datagram opens exactly the directions on its routed
// path.
func TestIdleLinksOpenNoChannel(t *testing.T) {
	topo, err := topology.Generate(topology.GenSpec{Kind: topology.GenStar, Hosts: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := simcore.NewEngine(1)
	nw, err := topo.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	a, b := nw.Node(topo.Hosts[0].Name), nw.Node(topo.Hosts[len(topo.Hosts)-1].Name)
	nw.PathDelay(a, b)
	nw.PathMTU(a, b)
	nw.PathBottleneckBps(a, b)
	nw.PathAllFlow(a, b)
	nw.FindLink(a.Name, "c0sw")
	if got := nw.OpenDirections(); len(got) != 0 {
		t.Fatalf("wiring and path queries opened %d channels: %v", len(got), got)
	}
	var want []string
	for cur := a; cur != b; {
		next := nw.Node(nw.NextHopName(cur, b))
		want = append(want, cur.Name+"->"+next.Name)
		cur = next
	}
	eng.At(0, func() {
		if err := a.SendDatagram(b.Addr, 9, 9, 100, nil); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := nw.OpenDirections()
	slices.Sort(got)
	slices.Sort(want)
	if len(want) != 6 || !slices.Equal(got, want) {
		t.Fatalf("one datagram opened %v, want its path %v", got, want)
	}
}
