package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"microgrid/internal/chaos"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// partitionedChaosRun executes NPB MG class S over the vBNS testbed —
// two ranks at UCSD, two at UIUC — under a WAN flap and a host crash
// with resilient resubmission, at the given shard count with automatic
// partitioning. It returns the report, its formatted text, the chaos
// timeline, and the canonical trace export: every byte of which must be
// independent of how the model was partitioned. The trace mask strips
// CatEngine so the serial run is comparable (partitioned builds strip
// it anyway; see scenario.TraceSpec.Mask).
func partitionedChaosRun(t *testing.T, shards int) (*Report, string, string, []byte) {
	t.Helper()
	s := Fig14Scenario()
	s.Trace = &scenario.TraceSpec{Mask: trace.CatAll &^ trace.CatEngine}
	s.Workload.Bench = "MG"
	s.Workload.Class = 'S'
	s.EngineShards = shards
	s.Partition = &scenario.PartitionSpec{Auto: true}
	cs, err := chaos.ParseScheduleString("schedule wan-faults\n" +
		"at 400ms flap vbns-west vbns-east down=50ms up=100ms count=2\n" +
		"at 600ms crash uiuc0 for=500ms\n")
	if err != nil {
		t.Fatal(err)
	}
	s.Chaos = cs
	s.Retry = &scenario.RetrySpec{
		StatusTimeout: 5 * simcore.Second,
		MaxAttempts:   3,
		Backoff:       100 * simcore.Millisecond,
		BackoffJitter: 50 * simcore.Millisecond,
	}

	m, err := BuildScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if shards >= 1 && !m.Partitioned() {
		t.Fatalf("shards=%d with partition auto did not partition the vBNS grid", shards)
	}
	if shards == 0 && m.Partitioned() {
		t.Fatal("serial build claims to be partitioned")
	}
	if m.Partitioned() {
		shardOf, lookahead := m.PartitionShards()
		// The backbone alone joins the shards, but uiuc0's crash sends
		// GIS updates from its shard to ucsd0's after the 1 ms
		// inter-cluster latency, which narrows the window to it.
		if lookahead != simcore.Millisecond {
			t.Fatalf("lookahead = %v, want the 1ms GIS update latency", lookahead)
		}
		// The two sites must never share a shard with each other when
		// there are at least two shards to spread over.
		if shards >= 2 && shardOf["ucsd0"] == shardOf["uiuc0"] {
			t.Fatalf("ucsd0 and uiuc0 share shard %d", shardOf["ucsd0"])
		}
		if shardOf["ucsd0"] != shardOf["ucsd-gw"] {
			t.Fatal("ucsd0 and its gateway landed on different shards")
		}
		// The backbone routers join their sites, so shards beyond the
		// two sites stay empty.
		for name, s := range shardOf {
			if s > 1 {
				t.Fatalf("shards=%d: %s placed on shard %d, want only the sites' shards 0-1", shards, name, s)
			}
		}
	}
	rep, err := m.RunWorkload(s)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	timeline := chaos.FormatTimeline(m.ChaosTimeline())
	run, _ := m.Trace()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, []trace.Run{run}); err != nil {
		t.Fatal(err)
	}
	return rep, FormatScenarioReport(s.Name, rep), timeline, buf.Bytes()
}

// TestPartitionedRunByteIdentical is the ISSUE 8 oracle: the same vBNS
// chaos run must produce identical reports, chaos timelines (firings and
// jitter), and byte-identical canonical traces on the serial engine and
// the partitioned parallel engine at 1, 2 and 4 shards.
func TestPartitionedRunByteIdentical(t *testing.T) {
	serialRep, serialText, serialTL, serialTrace := partitionedChaosRun(t, 0)
	if serialRep.Attempts < 2 {
		t.Fatalf("want the crash to force a resubmission (got %d attempts); the backoff-jitter stream is untested otherwise", serialRep.Attempts)
	}
	if !strings.Contains(serialTL, "crash") || !strings.Contains(serialTL, "flap") {
		t.Fatalf("chaos timeline missing expected firings:\n%s", serialTL)
	}
	for _, shards := range []int{1, 2, 4} {
		rep, text, tl, tr := partitionedChaosRun(t, shards)
		if !reflect.DeepEqual(serialRep, rep) {
			t.Errorf("shards=%d: report diverged from serial:\nserial: %+v\nshards: %+v", shards, serialRep, rep)
		}
		if text != serialText {
			t.Errorf("shards=%d: formatted report diverged:\nserial:\n%s\nshards:\n%s", shards, serialText, text)
		}
		if tl != serialTL {
			t.Errorf("shards=%d: chaos timeline diverged:\nserial:\n%s\nshards:\n%s", shards, serialTL, tl)
		}
		if !bytes.Equal(serialTrace, tr) {
			t.Errorf("shards=%d: trace JSONL diverged from serial (%d vs %d bytes)",
				shards, len(serialTrace), len(tr))
		}
	}
}

// TestPlanPartition covers the cluster→shard resolution on vBNS: sites
// dealt to shards, backbone routers joined to their sites, pinning, and
// the error cases.
func TestPlanPartition(t *testing.T) {
	spec, err := topology.VBNSSpec(topology.VBNSConfig{HostsPerSite: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := spec.Build(simcore.NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}

	// vBNS decomposes into four sub-millisecond clusters: the two campus
	// LANs plus the two singleton backbone routers (the 1 ms OC3 access
	// circuits and the 28 ms backbone are all wide-area).
	plan, err := planPartition(nw, 2, &scenario.PartitionSpec{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.clusters != 4 {
		t.Fatalf("plan = %+v, want 4 clusters", plan)
	}
	// Cluster order is by smallest node name: ucsd (ucsd-gw), uiuc
	// (uiuc-gw), vbns-east, vbns-west. The two sites are dealt to shards
	// 0 and 1; each backbone router joins the site behind its 1 ms
	// access link.
	want := map[string]int{"ucsd0": 0, "ucsd-switch": 0, "uiuc1": 1, "vbns-east": 1, "vbns-west": 0}
	for name, shard := range want {
		if got := plan.shardOf[name]; got != shard {
			t.Errorf("shardOf[%s] = %d, want %d", name, got, shard)
		}
	}
	// So the 28 ms backbone is the only link between shards, and the
	// window is its delay: the 1 ms access circuits stay inside a shard.
	if got := crossingLinks(nw, plan); len(got) != 1 || got[0] != "vbns-west-vbns-east" {
		t.Errorf("links crossing shards = %v, want just the backbone", got)
	}
	if plan.lookahead != 28*simcore.Millisecond {
		t.Errorf("lookahead = %v, want the 28ms backbone", plan.lookahead)
	}
	// Repeated planning gives the same placement.
	again, err := planPartition(nw, 2, &scenario.PartitionSpec{Auto: true})
	if err != nil || !reflect.DeepEqual(again.shardOf, plan.shardOf) {
		t.Errorf("replanning gave %v (%v), want %v", again.shardOf, err, plan.shardOf)
	}

	// Pinning moves the whole cluster.
	plan, err = planPartition(nw, 4, &scenario.PartitionSpec{Assign: map[string]int{"uiuc0": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.shardOf["uiuc-gw"] != 3 || plan.shardOf["uiuc1"] != 3 {
		t.Errorf("pinning uiuc0 to 3 left its cluster at %d/%d",
			plan.shardOf["uiuc-gw"], plan.shardOf["uiuc1"])
	}
	// ... and the pinned site pulls its backbone router with it.
	if plan.shardOf["vbns-east"] != 3 || plan.shardOf["vbns-west"] != 0 {
		t.Errorf("pinned uiuc0 to 3: vbns-east on %d, vbns-west on %d; want 3 and 0",
			plan.shardOf["vbns-east"], plan.shardOf["vbns-west"])
	}
	// Pinning uiuc's backbone router away from it puts the 1 ms access
	// circuit between shards, and the window shrinks to it.
	plan, err = planPartition(nw, 2, &scenario.PartitionSpec{Assign: map[string]int{"uiuc0": 1, "vbns-east": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.lookahead != simcore.Millisecond {
		t.Errorf("vbns-east pinned away from uiuc: lookahead = %v, want the 1ms access circuit", plan.lookahead)
	}

	for _, tc := range []struct {
		name string
		pc   *scenario.PartitionSpec
		want string
	}{
		{"unknown node", &scenario.PartitionSpec{Assign: map[string]int{"nope": 0}}, "unknown node"},
		{"shard out of range", &scenario.PartitionSpec{Assign: map[string]int{"ucsd0": 9}}, "have 2 shards"},
		{"split cluster", &scenario.PartitionSpec{Assign: map[string]int{"ucsd0": 0, "ucsd1": 1}}, "splits one cluster"},
	} {
		if _, err := planPartition(nw, 2, tc.pc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A single-cluster LAN is a no-op plan.
	lan, err := Build(BuildConfig{Seed: 1, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := planPartition(lan.Grid.Network(), 2, &scenario.PartitionSpec{Auto: true}); err != nil || plan != nil {
		t.Errorf("single-cluster plan = %+v, %v; want nil, nil", plan, err)
	}
}

// crossingLinks names the links ("a-b") whose ends the plan puts on
// different shards.
func crossingLinks(nw *netsim.Network, plan *partitionPlan) []string {
	var out []string
	for _, l := range nw.Links() {
		if plan.shardOf[l.A.Name] != plan.shardOf[l.B.Name] {
			out = append(out, l.A.Name+"-"+l.B.Name)
		}
	}
	return out
}

// wanNet builds a network from a compact description: names starting
// with "r" are routers, the rest hosts; each link is "a b delay" with
// the delay in milliseconds (0 means a 10 µs LAN link).
func wanNet(t *testing.T, nodes []string, links ...string) *netsim.Network {
	t.Helper()
	nw := netsim.New(simcore.NewEngine(1))
	for i, name := range nodes {
		if strings.HasPrefix(name, "r") {
			nw.AddRouter(name)
		} else {
			nw.AddHost(name, netsim.MakeAddr(10, 0, 0, byte(i+1)))
		}
	}
	for _, l := range links {
		var a, b string
		var ms int
		if _, err := fmt.Sscan(l, &a, &b, &ms); err != nil {
			t.Fatalf("link %q: %v", l, err)
		}
		d := simcore.Duration(ms) * simcore.Millisecond
		if ms == 0 {
			d = 10 * simcore.Microsecond
		}
		nw.Connect(nw.Node(a), nw.Node(b), netsim.LinkConfig{BandwidthBps: 1e9, Delay: d})
	}
	return nw
}

// TestPlanPartitionJoinsRouters covers the router-only clusters: chains
// of them follow the nearer site, pins pull them along, and the ones no
// site reaches — or every cluster of an all-router topology — fall back
// to round-robin.
func TestPlanPartitionJoinsRouters(t *testing.T) {
	shards := func(t *testing.T, nw *netsim.Network, n int, pc *scenario.PartitionSpec) map[string]int {
		t.Helper()
		plan, err := planPartition(nw, n, pc)
		if err != nil || plan == nil {
			t.Fatalf("plan = %v, %v", plan, err)
		}
		return plan.shardOf
	}
	check := func(t *testing.T, got, want map[string]int) {
		t.Helper()
		for name, s := range want {
			if got[name] != s {
				t.Errorf("shardOf[%s] = %d, want %d (plan %v)", name, got[name], s, got)
			}
		}
	}

	// Two sites joined by a chain of two routers: each router follows
	// the site its cheaper link leads to, so only the 20 ms middle link
	// crosses shards.
	chain := wanNet(t, []string{"a0", "a1", "b0", "r1", "r2"},
		"a0 a1 0", "a1 r1 2", "r1 r2 20", "r2 b0 3")
	check(t, shards(t, chain, 2, &scenario.PartitionSpec{Auto: true}),
		map[string]int{"a0": 0, "a1": 0, "r1": 0, "r2": 1, "b0": 1})
	// With the middle link cheapest, r1 takes r2 along before site b's
	// 3 ms link is ever reached: the cheapest link always wins.
	short := wanNet(t, []string{"a0", "b0", "r1", "r2"},
		"a0 r1 2", "r1 r2 1", "r2 b0 3")
	check(t, shards(t, short, 2, &scenario.PartitionSpec{Auto: true}),
		map[string]int{"a0": 0, "r1": 0, "r2": 0, "b0": 1})
	// Pinning site a to shard 1 carries the router next to it along.
	check(t, shards(t, chain, 2, &scenario.PartitionSpec{Assign: map[string]int{"a0": 1, "b0": 0}}),
		map[string]int{"a0": 1, "r1": 1, "r2": 0, "b0": 0})

	// An island of routers no host cluster reaches falls back to
	// cluster i on shard i mod shards. Clusters by smallest name: a0,
	// b0, r1, r8 (the island, cluster 3). r1's two equal links tie,
	// and the lower cluster id, a0's, wins.
	island := wanNet(t, []string{"a0", "b0", "r1", "r8", "r9"},
		"a0 r1 1", "r1 b0 1", "r8 r9 0")
	check(t, shards(t, island, 3, &scenario.PartitionSpec{Auto: true}),
		map[string]int{"a0": 0, "b0": 1, "r1": 0, "r8": 0, "r9": 0})
	check(t, shards(t, island, 2, &scenario.PartitionSpec{Auto: true}),
		map[string]int{"r8": 1, "r9": 1})

	// An all-router topology is round-robin by cluster index.
	routers := wanNet(t, []string{"r1", "r2", "r3"}, "r1 r2 5", "r2 r3 5")
	check(t, shards(t, routers, 2, &scenario.PartitionSpec{Auto: true}),
		map[string]int{"r1": 0, "r2": 1, "r3": 0})
}

// TestPartitionPreview pins the offline planner the mgridtrace summary
// uses: same placement as the build, no hosts constructed.
func TestPartitionPreview(t *testing.T) {
	s := Fig14Scenario()
	s.EngineShards = 2
	s.Partition = &scenario.PartitionSpec{Auto: true}
	shardOf, lookahead, shards, err := PartitionPreview(s)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2 || lookahead != 28*simcore.Millisecond {
		t.Fatalf("shards=%d lookahead=%v, want 2 and the 28ms backbone", shards, lookahead)
	}
	if shardOf["ucsd0"] != 0 || shardOf["uiuc0"] != 1 {
		t.Fatalf("placement %v, want ucsd on 0 and uiuc on 1", shardOf)
	}
	// The chaos schedule narrows the preview's window as it narrows the
	// build's: a degrade to a tenth of the backbone delay, then (lower
	// still) a crash across shards from the GIS home at ucsd0.
	for _, tc := range []struct {
		chaos string
		want  simcore.Duration
	}{
		{"at 1ms degrade vbns-west vbns-east delay=0.1", 2800 * simcore.Microsecond},
		{"at 1ms degrade ucsd-gw vbns-west delay=0.1", 28 * simcore.Millisecond},
		{"at 1ms crash ucsd1", 28 * simcore.Millisecond},
		{"at 1ms crash uiuc0\nat 2ms degrade vbns-west vbns-east delay=0.1", simcore.Millisecond},
	} {
		cs, err := chaos.ParseScheduleString("schedule preview\n" + tc.chaos + "\n")
		if err != nil {
			t.Fatal(err)
		}
		s.Chaos = cs
		_, lookahead, _, err := PartitionPreview(s)
		if err != nil || lookahead != tc.want {
			t.Errorf("chaos %q: preview lookahead = %v, %v; want %v", tc.chaos, lookahead, err, tc.want)
		}
		m, err := BuildScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, built := m.PartitionShards(); built != lookahead {
			t.Errorf("chaos %q: build lookahead %v, preview %v", tc.chaos, built, lookahead)
		}
	}
	// A degrade that takes a link between shards to zero delay leaves no
	// window to run in: preview and build both refuse it.
	cs, err := chaos.ParseScheduleString("schedule zero\nat 1ms degrade vbns-west vbns-east delay=0.0000000001\n")
	if err != nil {
		t.Fatal(err)
	}
	s.Chaos = cs
	if _, _, _, err := PartitionPreview(s); err == nil || !strings.Contains(err.Error(), "positive lookahead") {
		t.Errorf("zero-delay degrade: preview err = %v, want a positive-lookahead error", err)
	}
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "positive lookahead") {
		t.Errorf("zero-delay degrade: build err = %v, want a positive-lookahead error", err)
	}
	s.Chaos = nil
	// Serial scenario: preview reports a no-op.
	s.EngineShards = 0
	if m, _, _, err := PartitionPreview(s); err != nil || m != nil {
		t.Fatalf("serial preview = %v, %v; want nil map", m, err)
	}
}

// TestPartitionRequiresDirectMode pins the validation error.
func TestPartitionRequiresDirectMode(t *testing.T) {
	emu := HPVM
	_, err := Build(BuildConfig{
		Seed:      1,
		Target:    AlphaCluster,
		Emulation: &emu,
		Shards:    2,
		Partition: &scenario.PartitionSpec{Auto: true},
	})
	if err == nil || !strings.Contains(err.Error(), "direct mode") {
		t.Fatalf("err = %v, want direct-mode rejection", err)
	}
}

// runWindowed builds s at the given shard count — 0 is serial; otherwise
// partitioned automatically — runs its workload, and returns the report
// text, the chaos timeline and the synchronization window (0 serially).
func runWindowed(t *testing.T, s *scenario.Scenario, shards int) (string, string, simcore.Duration) {
	t.Helper()
	s.EngineShards, s.Partition = shards, nil
	if shards > 0 {
		s.Partition = &scenario.PartitionSpec{Auto: true}
	}
	m, err := BuildScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitioned() != (shards > 0) {
		t.Fatalf("shards=%d: partitioned = %v", shards, m.Partitioned())
	}
	_, la := m.PartitionShards()
	rep, err := m.RunWorkload(s)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return FormatScenarioReport(s.Name, rep), chaos.FormatTimeline(m.ChaosTimeline()), la
}

// TestDegradedBackbonePartitionedMatchesSerial runs the committed
// backbone-degrade example. The degrade lowers the only link between
// the shards from 28 ms to 280 µs, so the window must start at 280 µs:
// a window sized by the undegraded link let a frame cross shards inside
// the window that sent it, and the run panicked. Every shard count must
// report what the serial engine does.
func TestDegradedBackbonePartitionedMatchesSerial(t *testing.T) {
	s, err := scenario.Load("../../examples/wide-area-vbns/lu-degrade.scenario")
	if err != nil {
		t.Fatal(err)
	}
	serial, serialTL, _ := runWindowed(t, s, 0)
	if !strings.Contains(serialTL, "degrade") {
		t.Fatalf("chaos timeline lacks the degrade:\n%s", serialTL)
	}
	for _, shards := range []int{2, 4} {
		rep, tl, la := runWindowed(t, s, shards)
		if la != 280*simcore.Microsecond {
			t.Errorf("shards=%d: lookahead %v, want the degraded backbone's 280µs", shards, la)
		}
		if rep != serial || tl != serialTL {
			t.Errorf("shards=%d diverged from serial:\n%s%s\nserial:\n%s%s", shards, rep, tl, serial, serialTL)
		}
	}
}

// starCrash is the shape of mgridfuzz seed 9: four sites hang off one
// core router over wide-area links, and the site c1 host c1h0 crashes
// while a ping-pong runs between c0h0 and c1h0.
const starCrash = `scenario star-crash
seed 9
target procs=3 cpu=400 net=100Mbps delay=25µs name="FuzzCluster"
topology
  topology star-4x2
  host c0h0 10.1.1.1
  host c0h1 10.1.1.2
  host c1h0 10.2.1.1
  host c1h1 10.2.1.2
  host c2h0 10.3.1.1
  host c2h1 10.3.1.2
  host c3h0 10.4.1.1
  host c3h1 10.4.1.2
  router core
  router c0sw
  router c0gw
  router c1sw
  router c1gw
  router c2sw
  router c2gw
  router c3sw
  router c3gw
  link c0h0 c0sw 100Mbps 25µs
  link c0h1 c0sw 100Mbps 25µs
  link c0sw c0gw 1Gbps 100µs
  link c0gw core 622Mbps 20ms
  link c1h0 c1sw 100Mbps 25µs
  link c1h1 c1sw 100Mbps 25µs
  link c1sw c1gw 1Gbps 100µs
  link c1gw core 155Mbps 20ms loss=0.003
  link c2h0 c2sw 100Mbps 25µs
  link c2h1 c2sw 100Mbps 25µs
  link c2sw c2gw 1Gbps 100µs
  link c2gw core 155Mbps 8ms
  link c3h0 c3sw 100Mbps 25µs
  link c3h1 c3sw 100Mbps 25µs
  link c3sw c3gw 1Gbps 100µs
  link c3gw core 622Mbps 9ms
end
ranks c0h0 c1h0 c2h0
workload pingpong bytes=131072 ranks=2
retry timeout=1m0s attempts=3 backoff=24ms
chaos
  schedule crash-failover
  at 32ms crash c1h0
end
`

// TestPartitionWindowCoversGISUpdates pins the GIS term of the window.
// On two shards c0 and c2 (with the core router, behind c2's 8 ms link)
// land on shard 0 and c1 and c3 on shard 1, so the cheapest link between
// shards is c3's 9 ms one. But c1h0's crash sends its GIS update to the
// directory at c0h0 after the 8 ms inter-cluster latency: a 9 ms window
// opening at the crash would receive it inside itself. The window must
// be 8 ms, and the run must report what the serial engine does.
func TestPartitionWindowCoversGISUpdates(t *testing.T) {
	s, err := scenario.ParseString(starCrash)
	if err != nil {
		t.Fatal(err)
	}
	serial, serialTL, _ := runWindowed(t, s, 0)
	if !strings.Contains(serialTL, "crash") {
		t.Fatalf("chaos timeline lacks the crash:\n%s", serialTL)
	}
	rep, tl, la := runWindowed(t, s, 2)
	if la != 8*simcore.Millisecond {
		t.Errorf("lookahead %v, want the 8ms GIS update latency", la)
	}
	if rep != serial || tl != serialTL {
		t.Errorf("partitioned run diverged from serial:\n%s%s\nserial:\n%s%s", rep, tl, serial, serialTL)
	}
	// Without the crash only links join the shards.
	s.Chaos = nil
	s.EngineShards, s.Partition = 2, &scenario.PartitionSpec{Auto: true}
	if _, la, _, err := PartitionPreview(s); err != nil || la != 9*simcore.Millisecond {
		t.Errorf("crash-free lookahead = %v, %v; want the 9ms c3 link", la, err)
	}
}
