package oracle

import (
	"bytes"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/topology"
)

// `flownet` means "every link at flow fidelity": the committed
// three-campus flownet scenario, with its lossy WAN link, produces the
// same report, chaos timeline and canonical trace as the same grid with
// every link declared `fidelity=flow` — serially and cluster-partitioned
// on two shards, which also agree with each other. Handshakes and FINs
// cross the flow links analytically (so the WAN loss never hits a SYN),
// and the loopback connection on the submitting host keeps the packet
// loopback path, under both spellings.
func TestFlowNetworkIsEveryLinkAtFlowFidelity(t *testing.T) {
	s, err := scenario.Load("../../examples/custom-scenario/flownet-wan.scenario")
	if err != nil {
		t.Fatal(err)
	}
	if !s.FlowNetwork || s.Topology == nil {
		t.Fatal("scenario does not run an inline topology under flownet")
	}
	lossy := false
	allFlow := *s
	allFlow.FlowNetwork = false
	topo := *s.Topology
	topo.Links = append([]topology.LinkSpec(nil), s.Topology.Links...)
	for i := range topo.Links {
		lossy = lossy || topo.Links[i].LossProb > 0
		topo.Links[i].Fidelity = netsim.FidelityFlow
	}
	allFlow.Topology = &topo
	if !lossy {
		t.Fatal("scenario declares no lossy link; handshakes would ride the same path either way")
	}

	var serial *RunArtifacts
	for _, engine := range []struct {
		label  string
		shards int
		auto   bool
	}{{"serial", 0, false}, {"shards=2+auto", 2, true}} {
		flownet := RunVariant(s, "flownet "+engine.label, engine.shards, engine.auto, true)
		declared := RunVariant(&allFlow, "fidelity=flow "+engine.label, engine.shards, engine.auto, false)
		for _, v := range []*RunArtifacts{flownet, declared} {
			if v.Err != nil {
				t.Fatalf("%s: %v", v.Variant, v.Err)
			}
			if vs := CheckConservation(v.Total, v.LinkDirs); len(vs) != 0 {
				t.Fatalf("%s conservation: %v", v.Variant, vs)
			}
		}
		if !bytes.Contains(flownet.TraceJSONL, []byte(`"name":"flow-hop","link":"bsw-\u003ecore","bytes":40,"detail":"SYN"`)) {
			t.Fatalf("%s: no SYN crossed the lossy WAN link at flow fidelity", flownet.Variant)
		}
		if bytes.Contains(flownet.TraceJSONL, []byte(`"name":"hop"`)) {
			t.Fatalf("%s: a packet took a packet-fidelity hop", flownet.Variant)
		}
		for _, viol := range CompareVariants(flownet, declared) {
			t.Errorf("%s", viol)
		}
		if serial == nil {
			serial = flownet
		} else {
			for _, viol := range CompareVariants(serial, flownet) {
				t.Errorf("%s", viol)
			}
		}
	}
}
