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
		if lookahead != simcore.Millisecond {
			t.Fatalf("lookahead = %v, want the 1ms OC3 access delay", lookahead)
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
	if plan.lookahead != simcore.Millisecond {
		t.Errorf("lookahead = %v, want 1ms", plan.lookahead)
	}
	// So the 28 ms backbone is the only link between shards.
	if got := crossingLinks(nw, plan); len(got) != 1 || got[0] != "vbns-west-vbns-east" {
		t.Errorf("links crossing shards = %v, want just the backbone", got)
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
	if shards != 2 || lookahead != simcore.Millisecond {
		t.Fatalf("shards=%d lookahead=%v, want 2 and 1ms", shards, lookahead)
	}
	if shardOf["ucsd0"] != 0 || shardOf["uiuc0"] != 1 {
		t.Fatalf("placement %v, want ucsd on 0 and uiuc on 1", shardOf)
	}
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
