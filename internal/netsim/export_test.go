package netsim

// EgressRowsBuilt counts the clusters whose egress row is materialized
// at the current routing epoch.
func (n *Network) EgressRowsBuilt() int {
	if n.hier == nil {
		return 0
	}
	built := 0
	for c, row := range n.hier.egress {
		if row != nil && n.hier.egressEpoch[c] == n.routeEpoch {
			built++
		}
	}
	return built
}
