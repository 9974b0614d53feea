package netsim

import (
	"fmt"

	"microgrid/internal/simcore"
)

// The earlier routing kernels, kept verbatim in test code as the exact
// reference for the heap-ordered ones: cluster order by insertion sort,
// border interfaces by linear search, and both Dijkstra tiers by a
// linear scan for the closest unvisited vertex. CheckLinearScanRouting
// compares full next-hop choices against them, so a tie-break change
// shows even where path costs stay equal.

// refClusters is Clusters as first written: groups collected in a map
// keyed by union-find root, then insertion-sorted by smallest name.
func refClusters(n *Network, threshold simcore.Duration) [][]*Node {
	if threshold <= 0 {
		threshold = DefaultWANThreshold
	}
	parent := make([]int32, len(n.all))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
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
	groups := make(map[int32][]*Node)
	for _, nd := range n.Nodes() {
		root := find(nd.idx)
		groups[root] = append(groups[root], nd)
	}
	out := make([][]*Node, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0].Name < out[j-1][0].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// refIfaceFor finds nd's attachment that transmits toward peer over l.
func refIfaceFor(nd *Node, l *Link, peer *Node) *iface {
	for _, ifc := range nd.ifaces {
		if ifc.link == l && ifc.peer() == peer {
			return ifc
		}
	}
	return nil
}

// refLocalTab is buildLocalTab's linear-scan Dijkstra, returning the
// table instead of installing it.
func refLocalTab(n *Network, nd *Node) []*iface {
	h := n.hier
	c := h.clusterOf[nd.idx]
	mem := h.members[c]
	size := len(mem)
	dist := make([]simcore.Duration, size)
	reached := make([]bool, size)
	visited := make([]bool, size)
	first := make([]*iface, size)
	reached[h.localIdx[nd.idx]] = true
	for {
		var u *Node
		var ui int32
		var best simcore.Duration
		for _, cand := range mem {
			ci := h.localIdx[cand.idx]
			if visited[ci] || !reached[ci] {
				continue
			}
			if dd := dist[ci]; u == nil || dd < best || (dd == best && cand.Name < u.Name) {
				u, ui, best = cand, ci, dd
			}
		}
		if u == nil {
			break
		}
		visited[ui] = true
		for _, ifc := range u.ifaces {
			if ifc.link.down {
				continue
			}
			v := ifc.peer()
			if h.clusterOf[v.idx] != c {
				continue
			}
			vi := h.localIdx[v.idx]
			cost := best + ifc.link.Config.Delay + hopPenalty
			if !reached[vi] || cost < dist[vi] {
				dist[vi], reached[vi] = cost, true
				if u == nd {
					first[vi] = ifc
				} else {
					first[vi] = first[ui]
				}
			}
		}
	}
	first[h.localIdx[nd.idx]] = nil
	return first
}

// refEgressRow is buildEgress's linear-scan Dijkstra over the
// summarized cluster graph, returning each cluster's first-hop interface.
func refEgressRow(n *Network, c int32) []*iface {
	h := n.hier
	nc := len(h.members)
	dist := make([]simcore.Duration, nc)
	reached := make([]bool, nc)
	visited := make([]bool, nc)
	first := make([]*iface, nc)
	reached[c] = true
	for {
		u := int32(-1)
		var best simcore.Duration
		for ci := 0; ci < nc; ci++ {
			if visited[ci] || !reached[ci] {
				continue
			}
			if dd := dist[ci]; u < 0 || dd < best {
				u, best = int32(ci), dd
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, be := range h.borderOut[u] {
			if be.ifc == nil || be.ifc.link.down {
				continue
			}
			cost := best + be.ifc.link.Config.Delay + hopPenalty
			if !reached[be.to] || cost < dist[be.to] {
				dist[be.to], reached[be.to] = cost, true
				if u == c {
					first[be.to] = be.ifc
				} else {
					first[be.to] = first[u]
				}
			}
		}
	}
	return first
}

// refRouter answers next-hop queries from the linear scans, memoizing
// tables for one routing epoch.
type refRouter struct {
	n      *Network
	local  map[*Node][]*iface
	egress map[int32][]*iface
}

func (s *refRouter) nextHop(nd *Node, dstIdx int32) *iface {
	h := s.n.hier
	localTo := func(idx int32) *iface {
		tab, ok := s.local[nd]
		if !ok {
			tab = refLocalTab(s.n, nd)
			s.local[nd] = tab
		}
		return tab[h.localIdx[idx]]
	}
	c, d := h.clusterOf[nd.idx], h.clusterOf[dstIdx]
	if c == d {
		return localTo(dstIdx)
	}
	row, ok := s.egress[c]
	if !ok {
		row = refEgressRow(s.n, c)
		s.egress[c] = row
	}
	out := row[d]
	if out == nil {
		return nil
	}
	if out.node == nd {
		return out
	}
	return localTo(out.node.idx)
}

// CheckLinearScanRouting compares the network's routing against the
// linear-scan kernels: the cluster order of Clusters(0), the border
// interfaces, and the exact next-hop interface from every src to every
// dst. It routes the network first if needed and reports the first
// difference.
func CheckLinearScanRouting(n *Network, srcs, dsts []*Node) error {
	if !n.routed {
		n.ComputeRoutes()
	}
	got, want := n.Clusters(0), refClusters(n, 0)
	if len(got) != len(want) {
		return fmt.Errorf("%d clusters, linear scan finds %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("cluster %d has %d nodes, linear scan %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("cluster %d member %d is %s, linear scan %s",
					i, j, got[i][j].Name, want[i][j].Name)
			}
		}
	}
	h := n.hier
	var border int
	for _, l := range n.links {
		ca, cb := h.clusterOf[l.A.idx], h.clusterOf[l.B.idx]
		if ca == cb {
			continue
		}
		if refIfaceFor(l.A, l, l.B) != &l.ends[0] || refIfaceFor(l.B, l, l.A) != &l.ends[1] {
			return fmt.Errorf("link %s-%s: recorded interfaces differ from the node's", l.A.Name, l.B.Name)
		}
		border++
	}
	var edges int
	for _, out := range h.borderOut {
		edges += len(out)
	}
	if edges != 2*border {
		return fmt.Errorf("%d border edges for %d crossing links", edges, border)
	}
	ref := &refRouter{n: n, local: map[*Node][]*iface{}, egress: map[int32][]*iface{}}
	for _, src := range srcs {
		for _, dst := range dsts {
			if src == dst {
				continue
			}
			g, w := n.nextHop(src, dst.idx), ref.nextHop(src, dst.idx)
			if g != w {
				return fmt.Errorf("%s→%s: next hop %s, linear scan %s",
					src.Name, dst.Name, hopName(g), hopName(w))
			}
		}
	}
	return nil
}

func hopName(ifc *iface) string {
	if ifc == nil {
		return "<none>"
	}
	return ifc.peer().Name
}
