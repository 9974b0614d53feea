package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microgrid/internal/scenario"
	"microgrid/internal/trace"
)

// A bare `trace` line records every category, as TraceSpec's Mask 0
// documents: the same events as `trace categories=all`.
func TestBareTraceRecordsAll(t *testing.T) {
	events := func(line string) []byte {
		t.Helper()
		s, err := scenario.ParseString("scenario bare-trace\nseed 1\n" +
			"target procs=2 cpu=533 net=100Mbps delay=25us\n" + line +
			"\nworkload pingpong bytes=4096\n")
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunWorkload(s); err != nil {
			t.Fatal(err)
		}
		run, _ := m.Trace()
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, []trace.Run{run}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare, all := events("trace"), events("trace categories=all")
	if !bytes.Equal(bare, all) || bytes.Count(all, []byte("\n")) < 100 {
		t.Fatalf("bare trace recorded %d bytes, categories=all %d", len(bare), len(all))
	}
}

func TestBuildScenarioErrors(t *testing.T) {
	// A scenario with neither a target machine nor a GIS reference
	// defines no grid.
	if _, err := BuildScenario(&scenario.Scenario{Name: "empty", Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "no virtual grid") {
		t.Fatalf("gridless scenario: %v", err)
	}

	// A GIS reference to a missing LDIF file reports the scenario name.
	missing := &scenario.Scenario{
		Name: "lost", Seed: 1,
		GIS: &scenario.GISRef{File: "no-such.ldif", Config: "C"},
	}
	if _, err := BuildScenarioEnv(missing, ScenarioEnv{BaseDir: t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), `scenario "lost"`) {
		t.Fatalf("missing LDIF: %v", err)
	}

	// A malformed LDIF file reports both the scenario and the file.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ldif")
	if err := os.WriteFile(bad, []byte("dn: hn=x\nCpuSpeed 533\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken := &scenario.Scenario{
		Name: "broken", Seed: 1,
		GIS: &scenario.GISRef{File: "bad.ldif", Config: "C"},
	}
	if _, err := BuildScenarioEnv(broken, ScenarioEnv{BaseDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "bad.ldif") {
		t.Fatalf("malformed LDIF: %v", err)
	}

	// A zero-delay link leaves the parallel engine no lookahead: the
	// build names the link instead of panicking, from a target LAN or an
	// inline topology, partitioned or not.
	const inline = "topology\n  host a0 10.1.0.1\n  host b0 10.2.0.1\n" +
		"  router r\n  link a0 r 100Mbps 0s\n  link b0 r 100Mbps 0s\nend\nranks a0 b0\n"
	for _, tc := range []struct{ grid, engine, link string }{
		{"target procs=2 cpu=533 net=100Mbps delay=0s\n", "engine parallel shards=2\n", "vm0--lan-switch"},
		{"target procs=2 cpu=533 net=100Mbps delay=0s\n", "engine parallel shards=2\npartition auto\n", "vm0--lan-switch"},
		{"target procs=2 cpu=533 net=100Mbps\n" + inline, "engine parallel shards=2\n", "a0--r"},
		{"target procs=2 cpu=533 net=100Mbps\n" + inline, "engine parallel shards=2\npartition auto\n", "a0--r"},
	} {
		s, err := scenario.ParseString("scenario zero-delay\nseed 1\n" + tc.grid + tc.engine +
			"workload npb bench=EP class=S ranks=2\n")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "link "+tc.link+" has delay 0s") {
			t.Fatalf("zero-delay link under %q: %v", tc.engine, err)
		}
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	s := &scenario.Scenario{Name: "w", Seed: 1, Target: machinePtr(AlphaCluster)}
	m, err := BuildScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunWorkload(s); err == nil ||
		!strings.Contains(err.Error(), "names no workload") {
		t.Fatalf("nil workload: %v", err)
	}
	s.Workload = &scenario.Workload{Kind: "quantum-annealing"}
	if _, err := m.RunWorkload(s); err == nil ||
		!strings.Contains(err.Error(), "unknown workload kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	s.Workload = &scenario.Workload{Kind: "npb", Bench: "ZZ", Class: 'S'}
	if _, err := m.RunWorkload(s); err == nil {
		t.Fatal("unknown NPB bench accepted")
	}
}

// The committed example scenario — machine spec, NPB workload, retry
// policy and a chaos schedule in one file — must run end to end through
// the generic path, ride out the mid-run host crash via gatekeeper
// failover, and reproduce the same virtual-time result on every run.
func TestCommittedChaosScenario(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "custom-scenario", "faulty-cluster.scenario")
	run := func() *Report {
		s, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Chaos == nil || len(s.Chaos.Events) == 0 {
			t.Fatal("scenario carries no chaos schedule")
		}
		r, err := RunScenarioEnv(s, ScenarioEnv{BaseDir: filepath.Dir(path)})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (crash then failover to the spare host)", a.Attempts)
	}
	if a.VirtualElapsed != b.VirtualElapsed || a.JobVirtual != b.JobVirtual || a.Attempts != b.Attempts {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
