package scengen

import (
	"reflect"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
)

// Every generated scenario must validate, serialize canonically, and
// round-trip through scenario.Parse byte-identically — the contract
// mgridfuzz and the committed fuzz corpora rely on.
func TestGeneratedScenariosRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s, meta := Generate(seed, Options{Quick: true})
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		text := s.String()
		parsed, err := scenario.ParseString(text)
		if err != nil {
			t.Fatalf("seed %d: canonical text does not parse: %v\n%s", seed, err, text)
		}
		if got := parsed.String(); got != text {
			t.Fatalf("seed %d: round trip changed the text:\n--- generated\n%s\n--- reparsed\n%s", seed, text, got)
		}
		if len(meta.RankHosts) == 0 || len(meta.WANLinks) == 0 {
			t.Fatalf("seed %d: incomplete meta %+v", seed, meta)
		}
		if len(s.HostRanks) != s.Target.Procs {
			t.Fatalf("seed %d: %d rank hosts but procs=%d", seed, len(s.HostRanks), s.Target.Procs)
		}
	}
}

// The generator is a pure function of (seed, opts).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, am := Generate(seed, Options{Quick: true})
		b, bm := Generate(seed, Options{Quick: true})
		if a.String() != b.String() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if !reflect.DeepEqual(am, bm) {
			t.Fatalf("seed %d: meta differs: %+v vs %+v", seed, am, bm)
		}
	}
}

// Seeds must explore the space: both families, several workloads, every
// chaos flavor, and all three engine choices over a modest seed range.
func TestGenerateDiversity(t *testing.T) {
	families := map[string]int{}
	kinds := map[string]int{}
	flavors := map[string]int{}
	engines := map[string]int{}
	surface := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		s, meta := Generate(seed, Options{Quick: true})
		families[meta.Family]++
		kinds[s.Workload.Kind]++
		flavors[meta.ChaosFlavor]++
		switch {
		case s.EngineShards == 0:
			engines["serial"]++
		case s.Partition != nil:
			engines["partition"]++
		default:
			engines["parallel"]++
		}
		// The new-surface draws show in the scenario itself: flow
		// fidelity on the wide-area links, flownet, an explicit map.
		wanFlow := false
		for _, l := range s.Topology.Links {
			if l.Fidelity == netsim.FidelityFlow {
				wanFlow = true
			} else if l.Fidelity != netsim.FidelityPacket && l.Fidelity != 0 {
				t.Fatalf("seed %d: unexpected fidelity %v on %s–%s", seed, l.Fidelity, l.A, l.B)
			}
		}
		if wanFlow {
			surface["wan-fidelity"]++
			if !meta.FlowSafe {
				t.Fatalf("seed %d: flow-fidelity links on a draw with chaos or loss", seed)
			}
		}
		if s.FlowNetwork {
			surface["flownet"]++
			if !meta.FlowSafe {
				t.Fatalf("seed %d: flownet on a draw with chaos or loss", seed)
			}
		}
		if s.Partition != nil && !s.Partition.Auto {
			surface["partition-map"]++
			if len(s.Partition.Assign) != meta.Clusters {
				t.Fatalf("seed %d: partition map %+v for %d clusters", seed, s.Partition, meta.Clusters)
			}
		}
	}
	for _, want := range []string{"wan-fidelity", "flownet", "partition-map"} {
		if surface[want] == 0 {
			t.Errorf("new-surface draw %q never taken: %v", want, surface)
		}
	}
	for name, m := range map[string]map[string]int{
		"family": families, "workload kinds": kinds, "chaos flavors": flavors, "engines": engines,
	} {
		for k, v := range m {
			if v == 0 {
				t.Errorf("%s %q never drawn", name, k)
			}
		}
	}
	if len(families) < 2 || len(kinds) < 4 || len(flavors) < 3 || len(engines) < 3 {
		t.Fatalf("poor diversity: families=%v kinds=%v flavors=%v engines=%v",
			families, kinds, flavors, engines)
	}
}
