package netsim

// EgressRowsBuilt counts the clusters whose egress row is materialized
// at the current routing epoch.
func (n *Network) EgressRowsBuilt() int {
	if n.hier == nil {
		return 0
	}
	built := 0
	for c := range n.hier.egress {
		if row := n.hier.egress[c].Load(); row != nil && row.epoch == n.routeEpoch {
			built++
		}
	}
	return built
}

// OpenDirections lists the "src->dst" names of the link directions whose
// channel is open, in link creation order, A→B before B→A.
func (n *Network) OpenDirections() []string {
	var out []string
	for _, l := range n.links {
		for _, c := range l.ch {
			if c != nil {
				out = append(out, c.label())
			}
		}
	}
	return out
}

// EndpointNodes lists, in index order, the nodes that hold transport
// state (see Node.endpoints).
func (n *Network) EndpointNodes() []*Node {
	var out []*Node
	for _, nd := range n.all {
		if nd.ep != nil {
			out = append(out, nd)
		}
	}
	return out
}
