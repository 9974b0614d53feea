package core

import (
	"container/heap"
	"fmt"
	"sort"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// partitionPlan is the resolved cluster→shard placement of one build.
type partitionPlan struct {
	// shardOf maps every node name to its shard index.
	shardOf map[string]int
	// clusters is the number of topology clusters.
	clusters int
	// lookahead is the minimum inter-cluster link delay — the
	// conservative synchronization window for the partitioned run.
	lookahead simcore.Duration
}

// planPartition resolves a partition spec against a wired, routed
// network, reading the clusters from its routing hierarchy. A nil plan
// (with nil error) means the topology has a single cluster and
// partitioning is a no-op.
func planPartition(nw *netsim.Network, nshards int, pc *scenario.PartitionSpec) (*partitionPlan, error) {
	clusters := nw.ClusterIDs()
	if clusters.Len() < 2 {
		return nil, nil
	}
	// Deal the host-bearing clusters; router-only ones stay unplaced
	// (-1) until a pin or joinRouters places them.
	shard := make([]int, clusters.Len())
	sites := 0
	for ci := range shard {
		shard[ci] = -1
		if hasHost(clusters.Members(ci)) {
			shard[ci] = sites % nshards
			sites++
		}
	}
	if len(pc.Assign) > 0 {
		names := make([]string, 0, len(pc.Assign))
		for name := range pc.Assign {
			names = append(names, name)
		}
		sort.Strings(names)
		pinned := make(map[int]string)
		for _, name := range names {
			s := pc.Assign[name]
			nd := nw.Node(name)
			if nd == nil {
				return nil, fmt.Errorf("core: partition names unknown node %q", name)
			}
			ci := clusters.Of(nd)
			if s < 0 || s >= nshards {
				return nil, fmt.Errorf("core: partition places %q on shard %d, have %d shards", name, s, nshards)
			}
			if prev, ok := pinned[ci]; ok && shard[ci] != s {
				return nil, fmt.Errorf("core: partition splits one cluster: %q wants shard %d, %q wants shard %d",
					name, s, prev, shard[ci])
			}
			shard[ci] = s
			pinned[ci] = name
		}
	}
	joinRouters(clusters, shard, nshards)
	la, ok := nw.InterClusterMinDelay()
	if !ok {
		// Disconnected clusters exchange nothing; any positive window
		// works, so fall back to the cheapest link.
		la, _ = nw.MinLinkDelay()
	}
	plan := &partitionPlan{
		shardOf:   make(map[string]int),
		clusters:  clusters.Len(),
		lookahead: la,
	}
	for ci := range shard {
		for _, nd := range clusters.Members(ci) {
			plan.shardOf[nd.Name] = shard[ci]
		}
	}
	return plan, nil
}

// hasHost reports whether a cluster has a member that is not a router.
func hasHost(members []*netsim.Node) bool {
	for _, nd := range members {
		if !nd.Router {
			return true
		}
	}
	return false
}

// borderCand is a link from placed cluster from to unplaced cluster to.
type borderCand struct {
	delay    simcore.Duration
	from, to int
}

// borderHeap orders candidates by delay, then by the clusters' ids, so
// equal-delay choices do not depend on link creation order.
type borderHeap []borderCand

func (h borderHeap) Len() int { return len(h) }
func (h borderHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}
func (h borderHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *borderHeap) Push(x any)   { *h = append(*h, x.(borderCand)) }
func (h *borderHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// joinRouters places every unplaced (-1) cluster on the shard of its
// nearest placed neighbour: a multi-source Prim pass over the
// inter-cluster links that always takes the cheapest link from a placed
// cluster to an unplaced one, O(E log E). A backbone router thus lands
// with the site behind its access link, and a chain of routers follows
// the site it hangs off. Clusters the pass cannot reach fall back to
// cluster i on shard i mod nshards.
func joinRouters(clusters netsim.ClusterIDs, shard []int, nshards int) {
	var frontier borderHeap
	grow := func(from int) {
		clusters.Border(from, func(to int, d simcore.Duration) {
			if shard[to] < 0 {
				heap.Push(&frontier, borderCand{delay: d, from: from, to: to})
			}
		})
	}
	for ci, s := range shard {
		if s >= 0 {
			grow(ci)
		}
	}
	for frontier.Len() > 0 {
		c := heap.Pop(&frontier).(borderCand)
		if shard[c.to] >= 0 {
			continue
		}
		shard[c.to] = shard[c.from]
		grow(c.to)
	}
	for ci := range shard {
		if shard[ci] < 0 {
			shard[ci] = ci % nshards
		}
	}
}

// engineMap renders the plan as the node→engine assignment
// virtual.Config.AssignEngines expects.
func (p *partitionPlan) engineMap(pe *simcore.ParallelEngine) map[string]*simcore.Engine {
	m := make(map[string]*simcore.Engine, len(p.shardOf))
	for name, s := range p.shardOf {
		m[name] = pe.Shard(s)
	}
	return m
}

// partitionAssign prepares the virtual.Config.AssignEngines hook for a
// build. The hook runs after the topology is wired; the returned getter
// yields the plan it resolved (nil when partitioning was a no-op) or
// the error it hit.
func partitionAssign(par *simcore.ParallelEngine, pc *scenario.PartitionSpec) (func(nw *netsim.Network) map[string]*simcore.Engine, func() (*partitionPlan, error)) {
	var plan *partitionPlan
	var perr error
	hook := func(nw *netsim.Network) map[string]*simcore.Engine {
		p, err := planPartition(nw, par.NumShards(), pc)
		if err != nil {
			perr = err
			return nil
		}
		plan = p
		if p == nil {
			return nil
		}
		return p.engineMap(par)
	}
	return hook, func() (*partitionPlan, error) { return plan, perr }
}

// PartitionPreview resolves a scenario's partition offline, without
// building hosts or running anything: the scenario's topology is wired
// into a throwaway network and planned exactly as Build would. It
// returns the node→shard placement, the synchronization lookahead, and
// the shard count. A nil map with a nil error means partitioning would
// be a no-op for this scenario.
func PartitionPreview(s *scenario.Scenario) (map[string]int, simcore.Duration, int, error) {
	shards, pc := s.EngineShards, s.Partition
	topo := s.Topology
	if topo == nil && s.TopoGen != nil {
		spec, err := topology.Generate(*s.TopoGen)
		if err != nil {
			return nil, 0, shards, err
		}
		topo = spec
	}
	if shards < 1 || pc == nil || topo == nil {
		return nil, 0, shards, nil
	}
	nw, err := topo.Build(simcore.NewEngine(s.Seed))
	if err != nil {
		return nil, 0, shards, err
	}
	plan, err := planPartition(nw, shards, pc)
	if err != nil || plan == nil {
		return nil, 0, shards, err
	}
	return plan.shardOf, plan.lookahead, shards, nil
}

// Partitioned reports whether this instance's model is spread across
// shards (false for serial, single-cluster, or unpartitioned builds).
func (m *MicroGrid) Partitioned() bool { return m.plan != nil }

// PartitionShards returns the node→shard placement of a partitioned
// build (nil otherwise) and the synchronization lookahead.
func (m *MicroGrid) PartitionShards() (map[string]int, simcore.Duration) {
	if m.plan == nil {
		return nil, 0
	}
	return m.plan.shardOf, m.plan.lookahead
}
