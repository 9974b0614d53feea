package netsim

import (
	"slices"
	"strings"

	"microgrid/internal/simcore"
)

// DefaultWANThreshold separates intra-cluster from wide-area links: a
// link with at least this much propagation delay is treated as a WAN hop
// when detecting clusters. One millisecond comfortably exceeds campus
// LANs (tens of microseconds) and sits at the floor of wide-area
// latencies (the paper's vBNS OC-3 hops are 1 ms, its cross-country
// backbone 28 ms).
const DefaultWANThreshold = simcore.Millisecond

// Clusters partitions the nodes into connected components under links
// whose propagation delay is below threshold (DefaultWANThreshold if
// threshold <= 0) — the "clusters" of the modeled grid: sites internally
// joined by fast links and joined to each other only over WAN links.
// Components are returned with their nodes sorted by name, ordered by
// each component's lexicographically smallest node name, so the result —
// and any shard assignment derived from it — depends only on the
// topology, not on construction order.
//
// The cost is a union-find pass over the links, then a name sort of each
// component and of the components by their first name. A grid of many
// small sites never sorts the whole network: 100k hosts in campuses of
// a dozen nodes sort a dozen names at a time.
func (n *Network) Clusters(threshold simcore.Duration) [][]*Node {
	if threshold <= 0 {
		threshold = DefaultWANThreshold
	}
	// Union-find over compact node indices.
	parent := make([]int32, len(n.all))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range n.links {
		if l.Config.Delay >= threshold {
			continue
		}
		a, b := find(l.A.idx), find(l.B.idx)
		if a != b {
			parent[a] = b
		}
	}
	// Number components by first appearance in index order; group[root]
	// holds the component's number plus one (zero: not seen yet).
	group := make([]int32, len(n.all))
	of := make([]int32, len(n.all))
	var sizes []int
	for i := range n.all {
		root := find(int32(i))
		if group[root] == 0 {
			sizes = append(sizes, 0)
			group[root] = int32(len(sizes))
		}
		g := group[root] - 1
		of[i] = g
		sizes[g]++
	}
	// Lay the components out in one backing array, then name-sort each
	// and order them by their smallest name.
	out := make([][]*Node, len(sizes))
	flat := make([]*Node, len(n.all))
	off := 0
	for g, sz := range sizes {
		out[g] = flat[off : off : off+sz]
		off += sz
	}
	for i, nd := range n.all {
		out[of[i]] = append(out[of[i]], nd)
	}
	for _, c := range out {
		slices.SortFunc(c, byName)
	}
	slices.SortFunc(out, func(a, b []*Node) int { return byName(a[0], b[0]) })
	return out
}

// byName orders nodes by name.
func byName(a, b *Node) int { return strings.Compare(a.Name, b.Name) }

// ClusterIDs is a read-only view of the cluster partition one routing
// build was made on: cluster ids are positions in Clusters(0)'s order. A
// later ComputeRoutes makes a new partition instead of changing this
// one, so readers on any goroutine need no lock.
type ClusterIDs struct {
	of      []int32
	members [][]*Node
	border  [][]borderEdge
}

// ClusterIDs returns the routing hierarchy's cluster partition, routing
// the network first if its topology changed.
func (n *Network) ClusterIDs() ClusterIDs {
	if !n.routed {
		n.ComputeRoutes()
	}
	return ClusterIDs{of: n.hier.clusterOf, members: n.hier.members, border: n.hier.borderOut}
}

// Len returns the number of clusters.
func (c ClusterIDs) Len() int { return len(c.members) }

// Of returns the id of nd's cluster.
func (c ClusterIDs) Of(nd *Node) int { return int(c.of[nd.idx]) }

// Members returns cluster id's nodes, sorted by name.
func (c ClusterIDs) Members(id int) []*Node { return c.members[id] }

// Border calls fn once per link direction leaving cluster id, in link
// creation order, with the cluster on the far side and the link's
// propagation delay.
func (c ClusterIDs) Border(id int, fn func(to int, delay simcore.Duration)) {
	for _, be := range c.border[id] {
		fn(int(be.to), be.ifc.link.Config.Delay)
	}
}

// InterClusterMinDelay returns the smallest propagation delay over links
// joining different clusters of the routing hierarchy; ok is false when
// no link crosses clusters. No packet crosses between clusters in less
// than this. The hierarchy's border edges are exactly the crossing
// links, so this reads them instead of every link.
func (n *Network) InterClusterMinDelay() (d simcore.Duration, ok bool) {
	if !n.routed {
		n.ComputeRoutes()
	}
	for _, edges := range n.hier.borderOut {
		for _, be := range edges {
			if dd := be.ifc.link.Config.Delay; !ok || dd < d {
				d, ok = dd, true
			}
		}
	}
	return d, ok
}
