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
