package core

import (
	"fmt"
	"strings"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

func parseScenario(t *testing.T, text string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const scale100kText = "scenario scale100k\n" +
	"seed 7\n" +
	"target procs=8 cpu=500\n" +
	"topology generate kind=star hosts=100000 seed=7 wan-fidelity=flow\n" +
	"workload workqueue units=16 ops=2e+06 ranks=8\n"

// The lazy-host economics: a 100k-host declaration with an 8-rank
// working set must materialize per-host simulation state (schedulers,
// gatekeepers, daemons, GIS rows) for the working set only — the other
// ~99992 hosts exist as declarations and netsim nodes.
func TestLazyHostsMaterializeWorkingSetOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-node network")
	}
	s := parseScenario(t, scale100kText)
	m, err := BuildScenarioEnv(s, ScenarioEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.LazyHosts() {
		t.Fatal("100k-host generated scenario did not select lazy materialization")
	}
	if got := m.Grid.DeclaredHosts(); got != 100000 {
		t.Fatalf("declared %d hosts, want 100000", got)
	}
	// Build touches only the GIS home host.
	if got := m.Grid.MaterializedCount(); got > 2 {
		t.Fatalf("build materialized %d hosts, want at most the GIS home", got)
	}
	rep, err := m.RunWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VirtualElapsed <= 0 {
		t.Fatal("empty report")
	}
	// The run brings up the 8 rank hosts (plus the already-materialized
	// GIS home) and nothing else.
	if got := m.Grid.MaterializedCount(); got > 10 {
		t.Fatalf("run materialized %d hosts for an 8-rank job", got)
	}
	if got := m.registeredHostCount(); got != 8 {
		t.Fatalf("%d gatekeepers registered, want exactly the 8 rank hosts", got)
	}
	// Routing state stays working-set-sized too: no all-pairs tables.
	if got, lim := m.Grid.Network().RouteStateBytes(), int64(1<<20); got > lim {
		t.Fatalf("routing state %dB exceeds %dB on a working-set run", got, lim)
	}
}

// Host-count invariance: the same working set must compute the same
// virtual-time result whether the grid declares 2k or 100k hosts — the
// untouched declarations cannot perturb the simulation.
func TestLazyHostsScaleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-node network")
	}
	big := parseScenario(t, scale100kText)
	small := parseScenario(t, strings.Replace(scale100kText, "hosts=100000", "hosts=2000", 1))
	runOne := func(s *scenario.Scenario) string {
		m, err := BuildScenarioEnv(s, ScenarioEnv{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.RunWorkload(s)
		if err != nil {
			t.Fatal(err)
		}
		return FormatScenarioReport(s.Name, rep)
	}
	a, b := runOne(big), runOne(small)
	if a != b {
		t.Fatalf("100k-host and 2k-host reports differ for the same working set:\n--- 100k\n%s\n--- 2k\n%s", a, b)
	}
}

// Small committed scenarios keep the historical eager build: laziness is
// gated on generated topologies or host counts past the threshold, so
// bit-for-bit behavior of the existing corpus cannot shift.
func TestLazyGateKeepsSmallScenariosEager(t *testing.T) {
	s := parseScenario(t, "scenario tiny\nseed 1\ntarget procs=2 cpu=500 net=100Mbps delay=25µs\nworkload pingpong bytes=1024\n")
	m, err := BuildScenarioEnv(s, ScenarioEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if m.LazyHosts() {
		t.Fatal("default-LAN scenario picked lazy materialization")
	}
	if got := m.Grid.MaterializedCount(); got != m.Grid.DeclaredHosts() {
		t.Fatalf("eager build materialized %d of %d hosts", got, m.Grid.DeclaredHosts())
	}
}

// EnsureHost surfaces unknown names instead of minting hosts.
func TestEnsureHostUnknown(t *testing.T) {
	s := parseScenario(t, "scenario g\nseed 2\ntarget procs=4 cpu=500\n"+
		"topology generate kind=star hosts=6000 seed=2\nworkload pingpong bytes=1024\n")
	m, err := BuildScenarioEnv(s, ScenarioEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.LazyHosts() {
		t.Fatal("generated scenario not lazy")
	}
	if err := m.EnsureHost("no-such-host"); err == nil {
		t.Fatal("EnsureHost accepted an unknown name")
	}
	if err := m.EnsureHost("c0h0"); err != nil {
		t.Fatalf("EnsureHost on a declared host: %v", err)
	}
	if err := m.EnsureHost("c0h0"); err != nil {
		t.Fatalf("EnsureHost must be idempotent: %v", err)
	}
	if got := m.registeredHostCount(); got != 1 {
		t.Fatalf("%d gatekeepers after one EnsureHost", got)
	}
}

// A hand-written topology past the threshold builds lazily too: the
// declared set is exactly HostRanks, checked by name at build.
func TestLazyHostRanksGrid(t *testing.T) {
	spec := &topology.Spec{Name: "wide-lan", Routers: []string{"sw"}}
	var ranks []string
	for i := 0; i < lazyHostThreshold+10; i++ {
		name := fmt.Sprintf("n%d", i)
		spec.Hosts = append(spec.Hosts, topology.HostSpec{Name: name, Addr: fmt.Sprintf("10.%d.%d.1", i/250, i%250)})
		spec.Links = append(spec.Links, topology.LinkSpec{A: name, B: "sw", BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond})
		if i >= 10 {
			ranks = append(ranks, name)
		}
	}
	cfg := BuildConfig{Seed: 1, Target: scenario.Machine{Name: "wide", Procs: 4, CPUMIPS: 500}, Topo: spec, HostRanks: ranks}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.LazyHosts() || m.Grid.DeclaredHosts() != len(ranks) {
		t.Fatalf("lazy %v, declared %d; want lazy with %d", m.LazyHosts(), m.Grid.DeclaredHosts(), len(ranks))
	}
	if m.Grid.Host("n3") != nil {
		t.Fatal("a host outside HostRanks materialized")
	}
	if h := m.Grid.Host("n10"); h == nil || h.IP != netsim.MustParseAddr("10.0.10.1") {
		t.Fatalf("Host(n10) = %v", h)
	}
	for _, bad := range []string{"sw", "nosuch"} {
		cfg.HostRanks = append(ranks[:len(ranks):len(ranks)], bad)
		want := fmt.Sprintf("core: HostRanks names %q, absent from topology", bad)
		if _, err := Build(cfg); err == nil || err.Error() != want {
			t.Errorf("HostRanks with %q: err = %v, want %q", bad, err, want)
		}
	}
}
