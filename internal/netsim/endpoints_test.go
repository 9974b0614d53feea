package netsim_test

import (
	"os"
	"testing"

	"microgrid/internal/core"
	"microgrid/internal/scenario"
)

// TestScale100kEndpointsOnFirstUse runs the committed 100k-host example
// and checks that transport state stays with the working set: only hosts
// that listened, dialed, or sent or took datagrams hold it, and all of
// those are materialized hosts (a few, not 100k).
func TestScale100kEndpointsOnFirstUse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-node network")
	}
	data, err := os.ReadFile("../../examples/scale-100k/scale100k.scenario")
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.ParseString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildScenarioEnv(s, core.ScenarioEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWorkload(s); err != nil {
		t.Fatal(err)
	}
	nw := m.Grid.Network()
	used := nw.EndpointNodes()
	if len(used) == 0 {
		t.Fatal("no node holds transport state after an MPI run")
	}
	for _, nd := range used {
		if nd.Router || m.Grid.Materialized(nd.Name) == nil {
			t.Errorf("%s holds transport state but is not a materialized host", nd.Name)
		}
	}
	t.Logf("%d of %d nodes hold transport state", len(used), nw.NodeCount())
	if live, declared := m.Grid.MaterializedCount(), m.Grid.DeclaredHosts(); len(used) > live || declared < 100000 {
		t.Errorf("%d nodes hold transport state; %d of %d declared hosts are live", len(used), live, declared)
	}
}
