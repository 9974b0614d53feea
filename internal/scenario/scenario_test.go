package scenario

import (
	"reflect"
	"strings"
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

const fullText = `# everything at once
scenario kitchen-sink
describe one of each directive, to exercise the whole grammar
seed 42
target procs=4 cpu=533 mem=1GBytes net=100Mbps delay=25us name="Alpha Cluster" proctype="DEC21164, 533 MHz" nettype="100Mb Ethernet" compiler="GNU Fortran"
emulate procs=2 cpu=300 mem=512MBytes
rate 0.5
quantum 10ms
stagger 0.25
flownet
engine parallel shards=4
msgcost send=1000 perbyte=0.5
topology
  topology vbns-ish
  host ucsd0 1.0.1.1
  host uiuc0 1.0.2.1
  router west
  router east
  link ucsd0 west 100Mbps 25us
  link west east 622Mbps 28ms queue=512KBytes loss=0.001
  link east uiuc0 100Mbps 25us
end
ranks ucsd0 uiuc0
workload npb bench=BT class=S ranks=2 rph=1 sample=1s walltime=30s port=9000 credential="alice cert"
retry timeout=1.5s attempts=3 backoff=100ms jitter=10ms portstride=64
trace categories=net,mpi buf=4096
chaos
  schedule wan-cut
  at 500ms crash ucsd0 for=2s jitter=50ms
  at 1s linkdown west east for=200ms
end
`

func TestParseFull(t *testing.T) {
	s, err := ParseString(fullText)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "kitchen-sink" || s.Seed != 42 {
		t.Fatalf("header: %+v", s)
	}
	if s.Target.Name != "Alpha Cluster" || s.Target.Procs != 4 || s.Target.MemoryBytes != 1<<30 {
		t.Fatalf("target: %+v", s.Target)
	}
	if s.Target.ProcType != "DEC21164, 533 MHz" {
		t.Fatalf("quoted value with comma+spaces: %q", s.Target.ProcType)
	}
	if s.Emulation == nil || s.Emulation.Procs != 2 {
		t.Fatalf("emulate: %+v", s.Emulation)
	}
	if s.Rate != 0.5 || s.Quantum != 10*simcore.Millisecond || s.Stagger != 0.25 || !s.FlowNetwork {
		t.Fatalf("policy: %+v", s)
	}
	if s.SendOverheadOps != 1000 || s.PerByteOps != 0.5 {
		t.Fatalf("msgcost: %+v", s)
	}
	if s.EngineShards != 4 {
		t.Fatalf("engine: EngineShards = %d, want 4", s.EngineShards)
	}
	if s.Topology == nil || len(s.Topology.Links) != 3 || s.Topology.Links[1].LossProb != 0.001 {
		t.Fatalf("topology: %+v", s.Topology)
	}
	if !reflect.DeepEqual(s.HostRanks, []string{"ucsd0", "uiuc0"}) {
		t.Fatalf("ranks: %v", s.HostRanks)
	}
	w := s.Workload
	if w.Kind != "npb" || w.Bench != "BT" || w.Class != 'S' || w.Credential != "alice cert" {
		t.Fatalf("workload: %+v", w)
	}
	if s.Retry.MaxAttempts != 3 || s.Retry.StatusTimeout != 1500*simcore.Millisecond {
		t.Fatalf("retry: %+v", s.Retry)
	}
	if s.Trace.Mask != trace.CatNet|trace.CatMPI || s.Trace.BufSize != 4096 {
		t.Fatalf("trace: %+v", s.Trace)
	}
	if s.Chaos == nil || s.Chaos.Name != "wan-cut" || len(s.Chaos.Events) != 2 {
		t.Fatalf("chaos: %+v", s.Chaos)
	}
}

// TestRoundTrip is the property the fuzzer hammers: parse(serialize(s))
// deep-equals s for every parseable scenario.
func TestRoundTrip(t *testing.T) {
	texts := []string{
		fullText,
		"scenario tiny\nseed 0\ntarget procs=1 cpu=1\n",
		"scenario gis-run\nseed 7\ngis file=\"grid.ldif\" config=\"UCSD Cluster\" phys=alpha0:533,alpha1:533\nworkload cactus edge=50 steps=20\n",
		"scenario farm\nseed 3\ntarget procs=5 cpu=533\nworkload workqueue units=240 ops=1e7 policy=self ft lost=1s\n",
		"scenario pp\nseed 1\ntarget procs=2 cpu=533 net=100Mbps delay=25us\nworkload pingpong bytes=1024\ntrace\n",
		"scenario par\nseed 5\ntarget procs=4 cpu=533\nengine parallel shards=2\n",
		// `engine serial` is the default: it parses, and the canonical
		// serialization omits the line entirely.
		"scenario ser\nseed 5\ntarget procs=4 cpu=533\nengine serial\n",
	}
	for _, text := range texts {
		s1, err := ParseString(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text[:30], err)
		}
		out := s1.String()
		s2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of serialized form failed: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the scenario:\n%#v\nvs\n%#v\nserialized:\n%s", s1, s2, out)
		}
		// And serialization is a fixed point.
		if out2 := s2.String(); out2 != out {
			t.Fatalf("serialization not canonical:\n%q\nvs\n%q", out, out2)
		}
	}
}

// TestErrorPositions checks the satellite requirement: errors carry
// file, line and the offending token — including inside embedded
// topology and chaos sections, where lines count from the scenario
// file's own numbering.
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"scenario x\nseed nope\n", `scenario: demo.scenario:2: bad seed`},
		{"scenario x\nbogus y\n", `scenario: demo.scenario:2: unknown directive "bogus" (at "bogus")`},
		{"scenario x\ntarget procs=4 cpu=abc\n", `scenario: demo.scenario:2: bad cpu`},
		{"seed 1\n", `scenario: demo.scenario:1: the first directive must be 'scenario <name>'`},
		// Line 4 of the scenario file is the bad link line inside the
		// embedded topology section.
		{"scenario x\ntopology\n  host a 1.0.0.1\n  link a b 99xyz 1ms\nend\n",
			`topology: demo.scenario:4: bad bandwidth`},
		// Line 5 is the malformed chaos event.
		{"scenario x\nseed 1\nchaos\n  schedule s\n  at 1s crash\nend\n",
			`chaos: demo.scenario:5: crash needs 1 argument`},
		{"scenario x\ntopology\n  host a 1.0.0.1\n", "unterminated topology section"},
		{"scenario x\ntarget procs=2 cpu=1 name=\"unclosed\n", "unterminated quote"},
	}
	for _, c := range cases {
		_, err := ParseAt("demo.scenario", strings.NewReader(c.text))
		if err == nil {
			t.Fatalf("no error for %q", c.text)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not contain %q", err.Error(), c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []string{
		// both target and gis
		"scenario x\ntarget procs=1 cpu=1\ngis file=\"a\" config=\"b\"\n",
		// neither
		"scenario x\nseed 1\n",
		// topology without ranks
		"scenario x\ntarget procs=1 cpu=1\ntopology\n  host a 1.0.0.1\nend\n",
		// ranks without topology
		"scenario x\ntarget procs=1 cpu=1\nranks a b\n",
		// stagger out of range
		"scenario x\ntarget procs=1 cpu=1\nstagger 1.5\n",
		// ft without self-scheduling
		"scenario x\ntarget procs=1 cpu=1\nworkload workqueue units=1 ops=1 ft\n",
		// unknown workload option for the kind
		"scenario x\ntarget procs=1 cpu=1\nworkload npb bench=BT class=S edge=3\n",
		// retry without timeout
		"scenario x\ntarget procs=1 cpu=1\nretry attempts=2\n",
		// emulate alongside gis
		"scenario x\ngis file=\"a\" config=\"b\"\nemulate procs=1 cpu=1\n",
		// engine forms: missing mode, unknown mode, missing/zero/bad shards
		"scenario x\ntarget procs=1 cpu=1\nengine\n",
		"scenario x\ntarget procs=1 cpu=1\nengine warp\n",
		"scenario x\ntarget procs=1 cpu=1\nengine parallel\n",
		"scenario x\ntarget procs=1 cpu=1\nengine parallel shards=0\n",
		"scenario x\ntarget procs=1 cpu=1\nengine parallel shards=two\n",
		"scenario x\ntarget procs=1 cpu=1\nengine parallel lanes=4\n",
		"scenario x\ntarget procs=1 cpu=1\nengine serial shards=2\n",
	}
	for _, text := range bad {
		if _, err := ParseString(text); err == nil {
			t.Errorf("accepted invalid scenario:\n%s", text)
		}
	}
}

func TestLoadResolvesErrorsToFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/broken.scenario"
	if err := writeFile(path, "scenario x\nrate fast\n"); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), path+":2:") {
		t.Fatalf("want error naming %s:2, got %v", path, err)
	}
}

// TestPartitionDirective covers the partition grammar: both forms parse,
// round-trip canonically, and the validator rejects nonsense.
func TestPartitionDirective(t *testing.T) {
	s, err := ParseString("scenario p\ntarget procs=2 cpu=500\nengine parallel shards=2\npartition auto\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Partition == nil || !s.Partition.Auto || len(s.Partition.Assign) != 0 {
		t.Fatalf("partition auto parsed as %+v", s.Partition)
	}
	s, err = ParseString("scenario p\ntarget procs=2 cpu=500\npartition map uiuc0=1 ucsd0=0\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Partition.Assign["ucsd0"] != 0 || s.Partition.Assign["uiuc0"] != 1 {
		t.Fatalf("partition map parsed as %+v", s.Partition)
	}
	// Canonical serialization sorts the pins.
	if want := "partition map ucsd0=0 uiuc0=1\n"; !strings.Contains(s.String(), want) {
		t.Fatalf("serialization missing %q:\n%s", want, s.String())
	}
	for _, bad := range []string{
		"partition\n",
		"partition auto extra\n",
		"partition map\n",
		"partition map a\n",
		"partition map a=x\n",
		"partition map a=-1\n",
		"partition map a=1 a=2\n",
		"partition bogus\n",
	} {
		if _, err := ParseString("scenario p\ntarget procs=2 cpu=500\n" + bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Partitioning requires direct mode.
	if _, err := ParseString("scenario p\ntarget procs=2 cpu=500\nemulate procs=1 cpu=300\npartition auto\n"); err == nil {
		t.Error("accepted partition with an emulation platform")
	}
}

// TestParsePartitionFlag covers the CLI flag syntax: the `partition map`
// pins, comma-separated, under the directive's bounds.
func TestParsePartitionFlag(t *testing.T) {
	pc, err := ParsePartitionFlag("auto")
	if err != nil || pc == nil || !pc.Auto {
		t.Fatalf("auto: %+v, %v", pc, err)
	}
	pc, err = ParsePartitionFlag("ucsd0=0, uiuc0=1")
	if err != nil || pc.Assign["ucsd0"] != 0 || pc.Assign["uiuc0"] != 1 {
		t.Fatalf("map: %+v, %v", pc, err)
	}
	if pc, err := ParsePartitionFlag(""); err != nil || pc != nil {
		t.Fatalf("empty: %+v, %v", pc, err)
	}
	for _, bad := range []string{"nope", "a=", "a=x", "a=-1", "a=1,a=2", "x=5000"} {
		if _, err := ParsePartitionFlag(bad); err == nil {
			t.Errorf("ParsePartitionFlag(%q) accepted", bad)
		}
	}
}
