package netsim

import (
	"sync/atomic"

	"microgrid/internal/simcore"
)

// Hierarchical routing. The flat model computed an all-pairs next-hop
// table — O(N²) memory and time — which caps grid size far below the
// 100k-host scenarios the topology generator can declare. Routing is now
// two-level, mirroring how the modeled grids are actually shaped (campus
// clusters joined by WAN links):
//
//   - Nodes are grouped into clusters: connected components under links
//     faster than DefaultWANThreshold (the same partition the PDES shard
//     planner reads through ClusterIDs). Detection is a union-find pass
//     plus a name sort per cluster, per build.
//   - Each node lazily builds a local next-hop table over its own
//     cluster's subgraph — O(|cluster|) memory, built by the same
//     delay+hop-penalty Dijkstra with the same name tie-breaks as the
//     flat model, and only for nodes that actually originate or forward
//     traffic. Untouched hosts allocate no routing state at all.
//   - Inter-cluster destinations route toward a per-(srcCluster,
//     dstCluster) egress gateway chosen by Dijkstra over the summarized
//     cluster graph (one vertex per cluster, one edge per WAN link). A
//     source cluster's row costs O(E log C) time and O(C) memory, shared
//     by every node in the cluster, and is built only for clusters that
//     traffic leaves from.
//
// Both tiers run one heap-ordered Dijkstra kernel (firstHops).
//
// For single-gateway clusters — every committed topology and the whole
// generator family — the hierarchical next hops reproduce the flat
// shortest paths exactly (TestHierarchicalRoutingMatchesFlat). Forwarding
// is loop-free in general: each cluster hop strictly decreases the
// summarized distance to the destination cluster, and intra-cluster legs
// follow shortest paths to a single gateway.
//
// Failure and degrade events no longer trigger an eager global
// recomputation: they bump routeEpoch, and stale tables rebuild lazily on
// the next lookup.
//
// On a partitioned run the shards share these tables: one shard may build
// a table while another reads it. Each table is therefore immutable once
// built and published together with its epoch through an atomic.Pointer;
// builds run under Network.routeMu and re-check the epoch first, so a
// table is built once per epoch. routeEpoch itself only moves at
// barriers (global actions), never while shards run.

// hopPenalty is the small per-hop cost added to link delay so equal-delay
// paths prefer fewer hops (shared by local and summarized Dijkstra).
const hopPenalty = simcore.Microsecond

// borderEdge is one direction of a WAN link in the summarized cluster
// graph: crossing from the cluster owning ifc.node into cluster to.
type borderEdge struct {
	to  int32
	ifc *iface
}

// egressEntry is the routing decision for one (srcCluster, dstCluster)
// pair: every node in the source cluster forwards toward gw, which
// crosses on out.
type egressEntry struct {
	gw  *Node
	out *iface
	ok  bool
}

// egressRow is one source cluster's egress decisions, indexed by
// destination cluster, as built at routing epoch epoch.
type egressRow struct {
	epoch int64
	to    []egressEntry
}

// localTab is a node's intra-cluster next-hop table, indexed by the
// destination's cluster-local index, as built at routing epoch epoch.
type localTab struct {
	epoch int64
	hops  []*iface
}

// hier is the network's hierarchical routing state, rebuilt whenever the
// topology changes structurally (node or link added).
type hier struct {
	// clusterOf maps node idx → cluster id; localIdx maps node idx → the
	// node's position in its cluster's name-sorted member list.
	clusterOf []int32
	localIdx  []int32
	members   [][]*Node
	// borderOut[c] lists the WAN edges leaving cluster c, in link
	// creation order (the relaxation order the flat model used).
	borderOut [][]borderEdge
	// egress[c] is cluster c's lazily built decision row.
	egress []atomic.Pointer[egressRow]
}

// ComputeRoutes (re)builds the routing hierarchy: cluster detection plus
// the summarized border graph. That is a union-find pass over the links
// plus a name sort per cluster, O(N log N + E). Per-node tables and egress rows
// are built lazily on first lookup. It must be called after structural
// topology changes and before traffic flows; transports call it lazily
// too.
func (n *Network) ComputeRoutes() {
	size := len(n.all)
	h := &hier{
		clusterOf: make([]int32, size),
		localIdx:  make([]int32, size),
	}
	clusters := n.Clusters(0)
	h.members = clusters
	for ci, mem := range clusters {
		for li, nd := range mem {
			h.clusterOf[nd.idx] = int32(ci)
			h.localIdx[nd.idx] = int32(li)
		}
	}
	h.borderOut = make([][]borderEdge, len(clusters))
	for _, l := range n.links {
		ca, cb := h.clusterOf[l.A.idx], h.clusterOf[l.B.idx]
		if ca == cb {
			continue
		}
		h.borderOut[ca] = append(h.borderOut[ca], borderEdge{to: cb, ifc: &l.ends[0]})
		h.borderOut[cb] = append(h.borderOut[cb], borderEdge{to: ca, ifc: &l.ends[1]})
	}
	h.egress = make([]atomic.Pointer[egressRow], len(clusters))
	n.hier = h
	n.routeEpoch++
	n.routed = true
}

// invalidateRoutes marks every lazily built table stale after a link
// state change (failure, restore, degrade). Unlike the flat model's
// eager global recomputation this is O(1); tables rebuild on demand.
func (n *Network) invalidateRoutes() {
	if !n.routed {
		return
	}
	n.routeEpoch++
}

// nextHop returns the interface node nd uses toward the node with compact
// index dstIdx, or nil if unreachable. The caller must ensure the network
// is routed.
func (n *Network) nextHop(nd *Node, dstIdx int32) *iface {
	h := n.hier
	c, d := h.clusterOf[nd.idx], h.clusterOf[dstIdx]
	if c != d {
		e := n.egressTo(c, d)
		if e == nil {
			return nil
		}
		if e.gw == nd {
			return e.out
		}
		dstIdx = e.gw.idx
	}
	t := nd.tab.Load()
	if t == nil || t.epoch != n.routeEpoch {
		t = n.buildLocalTab(nd)
	}
	return t.hops[h.localIdx[dstIdx]]
}

// buildLocalTab runs Dijkstra from nd over its cluster's subgraph — the
// same cost function and deterministic name tie-break as the flat model,
// restricted to intra-cluster links. Vertices are cluster-local indices,
// which ascend in name order, so the kernel's smallest-index tie-break
// is the name tie-break.
func (n *Network) buildLocalTab(nd *Node) *localTab {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if t := nd.tab.Load(); t != nil && t.epoch == n.routeEpoch {
		return t // another shard built it first
	}
	h := n.hier
	c := h.clusterOf[nd.idx]
	mem := h.members[c]
	first := firstHops(len(mem), h.localIdx[nd.idx], func(u int32, relax func(int32, *iface)) {
		for _, ifc := range mem[u].ifaces {
			if ifc.link.down {
				continue
			}
			if v := ifc.peer(); h.clusterOf[v.idx] == c {
				relax(h.localIdx[v.idx], ifc)
			}
		}
	})
	first[h.localIdx[nd.idx]] = nil // self is handled by the loopback path
	t := &localTab{epoch: n.routeEpoch, hops: first}
	nd.tab.Store(t)
	return t
}

// egressTo returns cluster c's egress decision toward cluster d, building
// the row lazily via Dijkstra over the summarized cluster graph.
func (n *Network) egressTo(c, d int32) *egressEntry {
	row := n.hier.egress[c].Load()
	if row == nil || row.epoch != n.routeEpoch {
		row = n.buildEgress(c)
	}
	e := &row.to[d]
	if !e.ok {
		return nil
	}
	return e
}

// buildEgress runs Dijkstra from cluster c over the summarized graph, in
// O(E log C) for E border edges and C clusters. Cluster ids ascend in
// representative-name order (Clusters orders them so), so the kernel's
// smallest-id tie-break mirrors the flat model's name tie-break; border
// edges relax in link creation order, mirroring iface order.
// Intra-cluster transit is costed at zero — exact for singleton transit
// clusters (backbone routers and cores), which is every committed and
// generated family.
func (n *Network) buildEgress(c int32) *egressRow {
	h := n.hier
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if row := h.egress[c].Load(); row != nil && row.epoch == n.routeEpoch {
		return row // another shard built it first
	}
	nc := len(h.members)
	first := firstHops(nc, c, func(u int32, relax func(int32, *iface)) {
		for _, be := range h.borderOut[u] {
			if !be.ifc.link.down {
				relax(be.to, be.ifc)
			}
		}
	})
	row := make([]egressEntry, nc)
	for d := 0; d < nc; d++ {
		if int32(d) == c || first[d] == nil {
			continue
		}
		row[d] = egressEntry{gw: first[d].node, out: first[d], ok: true}
	}
	r := &egressRow{epoch: n.routeEpoch, to: row}
	h.egress[c].Store(r)
	return r
}

// firstHops is the Dijkstra kernel both routing tiers share. It searches
// size vertices from src; edges(u, relax) calls relax(v, ifc) for each
// usable edge u→v, where ifc is the interface the edge leaves u on and
// costs ifc's delay plus hopPenalty. It returns, per vertex, the
// interface src leaves on toward it (nil for src and unreachable
// vertices).
//
// Vertices are extracted in (distance, index) order from a binary heap
// with lazy deletion: an improved distance pushes a fresh entry and the
// stale one is skipped when popped. Ties go to the smallest index, and a
// vertex's first hop comes from the first edge that reached it at its
// final distance. O(E log V).
func firstHops(size int, src int32, edges func(u int32, relax func(v int32, ifc *iface))) []*iface {
	dist := make([]simcore.Duration, size)
	reached := make([]bool, size)
	visited := make([]bool, size)
	first := make([]*iface, size)
	reached[src] = true
	q := distHeap{{src, 0}}
	var u int32
	var best simcore.Duration
	relax := func(v int32, ifc *iface) {
		cost := best + ifc.link.Config.Delay + hopPenalty
		if !reached[v] || cost < dist[v] {
			dist[v], reached[v] = cost, true
			if u == src {
				first[v] = ifc
			} else {
				first[v] = first[u]
			}
			q.push(distItem{v, cost})
		}
	}
	for len(q) > 0 {
		it := q.pop()
		if visited[it.v] || it.d != dist[it.v] {
			continue // stale: superseded by a shorter push
		}
		u, best = it.v, it.d
		visited[u] = true
		edges(u, relax)
	}
	return first
}

// distItem is one heap entry: vertex v reached at distance d.
type distItem struct {
	v int32
	d simcore.Duration
}

// distHeap is a binary min-heap of distItems ordered by (d, v).
type distHeap []distItem

func (a distItem) less(b distItem) bool {
	return a.d < b.d || (a.d == b.d && a.v < b.v)
}

func (q *distHeap) push(it distItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *distHeap) pop() distItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && h[l].less(h[m]) {
			m = l
		}
		if r < last && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// NextHopName reports the name of the node nd forwards to on its way to
// dst, or "" when dst is unreachable — exposed for routing equivalence
// tests and tooling.
func (n *Network) NextHopName(nd, dst *Node) string {
	if !n.routed {
		n.ComputeRoutes()
	}
	ifc := n.nextHop(nd, dst.idx)
	if ifc == nil {
		return ""
	}
	return ifc.peer().Name
}

// RouteStateBytes estimates the memory held by materialized routing
// tables — local tables actually built plus egress rows — for scalability
// assertions. Untouched nodes contribute nothing.
func (n *Network) RouteStateBytes() int64 {
	var total int64
	for _, nd := range n.nodes {
		if t := nd.tab.Load(); t != nil {
			total += int64(len(t.hops)) * 8
		}
	}
	if n.hier != nil {
		for c := range n.hier.egress {
			if row := n.hier.egress[c].Load(); row != nil {
				total += int64(len(row.to)) * 24
			}
		}
	}
	return total
}
