// Package scengen is the MicroGrid's seeded scenario generator: one
// int64 seed deterministically expands into a complete, valid scenario
// — a multi-cluster topology (star-of-clusters or fat-tree of campus
// LANs), a workload draw, an optional fault schedule, and an engine
// choice — whose canonical text round-trips through scenario.Parse.
// Paired with internal/oracle it forms the differential/metamorphic
// fuzzing subsystem: the generator supplies diversity the hand-written
// fig05–fig17 experiments cannot, the oracle checks every run against
// properties derived from the scenario itself.
//
// All randomness comes from one math/rand stream seeded with the given
// seed and consumed in a fixed draw order, so a seed is a complete,
// shareable reproduction of a scenario.
package scengen

import (
	"fmt"
	"math/rand"

	"microgrid/internal/chaos"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
)

// Options tunes generation.
type Options struct {
	// Quick shrinks workload sizes for CI-speed runs.
	Quick bool
}

// Meta describes the generated scenario in terms the oracle consumes:
// which links are wide-area (chaos and degradation targets), which
// hosts carry ranks, and which cross-checks are applicable.
type Meta struct {
	// Family is the topology family ("star" or "fattree").
	Family string
	// Clusters is the number of campus LANs.
	Clusters int
	// WANLinks lists the inter-cluster link endpoint pairs.
	WANLinks [][2]string
	// RankHosts are the virtual hosts in rank order (including a spare,
	// when the chaos flavor reserves one).
	RankHosts []string
	// ChaosFlavor is "" (no faults), "net" (transient link faults and
	// CPU load), or "crash" (permanent host crash + resilient retry
	// failing over to a spare host).
	ChaosFlavor string
	// HasLoss reports whether any link carries random loss.
	HasLoss bool
	// FlowSafe reports whether the flow-vs-packet envelope check
	// applies: no chaos and no lossy links, so both network modes model
	// the same fault-free run.
	FlowSafe bool
}

// Generate expands seed into a scenario and its oracle metadata. The
// same (seed, opts) always yields the same scenario.
func Generate(seed int64, opts Options) (*scenario.Scenario, *Meta) {
	rng := rand.New(rand.NewSource(seed))
	meta := &Meta{}

	// (a) Topology family: a multi-cluster testbed whose campus LANs sit
	// below the WAN threshold and whose inter-cluster links sit above
	// it, so `partition auto` always finds clusters to place.
	spec := drawTopology(rng, meta)

	// (b) Workload.
	w, ranks := drawWorkload(rng, opts, meta)

	// (c) Chaos flavor decides the rank layout: the crash flavor
	// reserves a spare host for gatekeeper failover, so it needs the
	// topology to have one to spare.
	flavor := drawFlavor(rng, w)
	if flavor == "crash" && ranks+1 > len(spec.Hosts) {
		flavor = "net"
	}
	if ranks > len(spec.Hosts) {
		ranks = len(spec.Hosts)
	}
	hosts := ranks
	if flavor == "crash" {
		hosts = ranks + 1
		w.Ranks = ranks
	}
	meta.ChaosFlavor = flavor
	meta.RankHosts = pickRankHosts(rng, spec, hosts)

	s := &scenario.Scenario{
		Name:        fmt.Sprintf("fuzz-s%d", seed),
		Description: fmt.Sprintf("generated: %s x%d, %s, chaos=%s", meta.Family, meta.Clusters, w.Kind, orNone(flavor)),
		Seed:        seed,
		Target: &scenario.Machine{
			Name:            "FuzzCluster",
			Procs:           hosts,
			CPUMIPS:         float64(200 + rng.Intn(9)*100),
			NetBandwidthBps: 100e6,
			NetPerSideDelay: 25 * simcore.Microsecond,
		},
		Topology:  spec,
		HostRanks: meta.RankHosts,
		Workload:  w,
	}

	// Occasional per-message CPU cost, for coverage of the msgcost path.
	if rng.Intn(4) == 0 {
		s.SendOverheadOps = float64(500 + rng.Intn(1500))
		s.PerByteOps = float64(rng.Intn(3)) * 0.25
	}

	// (d) Engine draw: serial, parallel, or parallel with automatic
	// cluster partitioning.
	switch rng.Intn(3) {
	case 1:
		s.EngineShards = 2 + rng.Intn(3)
	case 2:
		s.EngineShards = 2 + rng.Intn(3)
		s.Partition = &scenario.PartitionSpec{Auto: true}
	}

	// (e) Fault schedule.
	switch flavor {
	case "net":
		s.Chaos = drawNetFaults(rng, meta)
	case "crash":
		s.Chaos = &chaos.Schedule{
			Name: "crash-failover",
			Events: []chaos.Event{{
				At:   simcore.Time(simcore.Duration(5+rng.Intn(36)) * simcore.Millisecond),
				Kind: chaos.HostCrash,
				Host: meta.RankHosts[1],
			}},
		}
		// The crashed host never returns; the resilient client times the
		// attempt out and the resubmission lands on the spare host. The
		// timeout must sit far above any healthy generated run so it only
		// fires for the killed attempt — the slowest draws (pingpong at
		// 128KiB over a 20ms WAN, BT on five hosts) run ~11s virtual.
		s.Retry = &scenario.RetrySpec{
			StatusTimeout: 60 * simcore.Second,
			MaxAttempts:   3,
			Backoff:       simcore.Duration(10+rng.Intn(31)) * simcore.Millisecond,
		}
	}

	meta.FlowSafe = flavor == "" && !meta.HasLoss

	// (f) New-surface draws, appended after every legacy draw so an old
	// seed keeps its existing prefix (topology, workload, faults) and
	// only gains attributes here.

	// Per-link fidelity: on fault-free, loss-free draws, demote the wide
	// area to flow fidelity while the campuses stay packet-level — the
	// mixed configuration large grids run at. Chaos and loss stay on
	// all-packet draws: both act on per-packet state the flow law folds
	// away, so their interaction is not a lawful-agreement question.
	if meta.FlowSafe && rng.Intn(3) == 0 {
		flowWANLinks(spec, meta)
	}

	// Whole-run flow network: the scenario's own text selects analytic
	// modeling, exercising the flownet parse/serialize path and
	// mgridrun's flow configuration.
	if meta.FlowSafe && rng.Intn(6) == 0 {
		s.FlowNetwork = true
	}

	// Explicit placement: sometimes replace automatic placement with a
	// `partition map` pinning each campus cluster to a shard by its
	// gateway (the core's cluster keeps the automatic default), rotated
	// so placements differ across seeds.
	if s.Partition != nil && s.Partition.Auto && rng.Intn(2) == 0 {
		off := rng.Intn(s.EngineShards)
		assign := make(map[string]int, meta.Clusters)
		for i := 0; i < meta.Clusters; i++ {
			anchor := fmt.Sprintf("c%dgw", i)
			if meta.Family == "fattree" {
				anchor = fmt.Sprintf("e%dsw", i)
			}
			assign[anchor] = (i + off) % s.EngineShards
		}
		s.Partition = &scenario.PartitionSpec{Assign: assign}
	}

	return s, meta
}

// flowWANLinks sets flow fidelity on every wide-area link of spec (the
// pairs recorded in meta.WANLinks), leaving campus links packet-level.
func flowWANLinks(spec *topology.Spec, meta *Meta) {
	wan := make(map[[2]string]bool, 2*len(meta.WANLinks))
	for _, p := range meta.WANLinks {
		wan[p] = true
		wan[[2]string{p[1], p[0]}] = true
	}
	for i := range spec.Links {
		l := &spec.Links[i]
		if wan[[2]string{l.A, l.B}] {
			l.Fidelity = netsim.FidelityFlow
		}
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// drawTopology picks the family and builds the spec, recording the WAN
// link pairs in meta.
func drawTopology(rng *rand.Rand, meta *Meta) *topology.Spec {
	k := 2 + rng.Intn(3) // campus LANs
	h := 2 + rng.Intn(2) // hosts per LAN
	meta.Clusters = k
	if rng.Intn(2) == 0 {
		meta.Family = "star"
		return starOfClusters(rng, meta, k, h)
	}
	meta.Family = "fattree"
	return fatTree(rng, meta, k, h)
}

// wanDelay draws an inter-cluster propagation delay safely above
// netsim.DefaultWANThreshold, so cluster detection always separates the
// campuses.
func wanDelay(rng *rand.Rand) simcore.Duration {
	return simcore.Duration(2+rng.Intn(19)) * simcore.Millisecond
}

// maybeLoss puts a small random-loss probability on l (rarely), and
// records it in meta: lossy links disable the flow-envelope check.
func maybeLoss(rng *rand.Rand, meta *Meta, l *topology.LinkSpec) {
	if rng.Intn(8) == 0 {
		l.LossProb = float64(1+rng.Intn(10)) / 1000 // 0.001 .. 0.010
		meta.HasLoss = true
	}
}

// starOfClusters builds k campus LANs, each host hanging off a campus
// switch that reaches a campus gateway, with every gateway homed on one
// core router over a wide-area access link — the vBNS shape generalized
// to k sites.
func starOfClusters(rng *rand.Rand, meta *Meta, k, h int) *topology.Spec {
	spec := &topology.Spec{Name: fmt.Sprintf("star-%dx%d", k, h)}
	spec.Routers = append(spec.Routers, "core")
	for i := 0; i < k; i++ {
		sw := fmt.Sprintf("c%dsw", i)
		gw := fmt.Sprintf("c%dgw", i)
		spec.Routers = append(spec.Routers, sw, gw)
		for j := 0; j < h; j++ {
			name := fmt.Sprintf("c%dh%d", i, j)
			spec.Hosts = append(spec.Hosts, topology.HostSpec{
				Name: name, Addr: fmt.Sprintf("10.%d.1.%d", i+1, j+1),
			})
			spec.Links = append(spec.Links, topology.LinkSpec{
				A: name, B: sw, BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond,
			})
		}
		spec.Links = append(spec.Links, topology.LinkSpec{
			A: sw, B: gw, BandwidthBps: 1e9, Delay: 100 * simcore.Microsecond,
		})
		access := topology.LinkSpec{A: gw, B: "core", Delay: wanDelay(rng)}
		if rng.Intn(2) == 0 {
			access.BandwidthBps = 155e6 // OC-3
		} else {
			access.BandwidthBps = 622e6 // OC-12
		}
		maybeLoss(rng, meta, &access)
		spec.Links = append(spec.Links, access)
		meta.WANLinks = append(meta.WANLinks, [2]string{gw, "core"})
	}
	return spec
}

// fatTree builds k edge LANs whose switches each uplink to c core
// routers over wide-area links — a 2-level multipath core.
func fatTree(rng *rand.Rand, meta *Meta, k, h int) *topology.Spec {
	c := 1 + rng.Intn(2)
	spec := &topology.Spec{Name: fmt.Sprintf("fattree-%dx%dc%d", k, h, c)}
	for m := 0; m < c; m++ {
		spec.Routers = append(spec.Routers, fmt.Sprintf("core%d", m))
	}
	for i := 0; i < k; i++ {
		sw := fmt.Sprintf("e%dsw", i)
		spec.Routers = append(spec.Routers, sw)
		for j := 0; j < h; j++ {
			name := fmt.Sprintf("e%dh%d", i, j)
			spec.Hosts = append(spec.Hosts, topology.HostSpec{
				Name: name, Addr: fmt.Sprintf("10.%d.2.%d", i+1, j+1),
			})
			spec.Links = append(spec.Links, topology.LinkSpec{
				A: name, B: sw, BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond,
			})
		}
		for m := 0; m < c; m++ {
			core := fmt.Sprintf("core%d", m)
			up := topology.LinkSpec{A: sw, B: core, BandwidthBps: 622e6, Delay: wanDelay(rng)}
			maybeLoss(rng, meta, &up)
			spec.Links = append(spec.Links, up)
			meta.WANLinks = append(meta.WANLinks, [2]string{sw, core})
		}
	}
	return spec
}

// drawWorkload picks the application and its knobs, returning the rank
// count it needs. Sizes stay small: a fuzzing run's value is in the
// configuration draw, not the compute volume.
func drawWorkload(rng *rand.Rand, opts Options, meta *Meta) (*scenario.Workload, int) {
	switch rng.Intn(4) {
	case 0:
		benches := []string{"EP", "MG", "BT"}
		return &scenario.Workload{
			Kind:  "npb",
			Bench: benches[rng.Intn(len(benches))],
			Class: 'S',
		}, 4
	case 1:
		ranks := 2 + rng.Intn(3)
		edge := 8 + 4*rng.Intn(3)
		steps := 2 + rng.Intn(3)
		if !opts.Quick {
			steps += 2
		}
		return &scenario.Workload{Kind: "cactus", Edge: edge, Steps: steps}, ranks
	case 2:
		ranks := 3 + rng.Intn(3)
		w := &scenario.Workload{
			Kind:       "workqueue",
			Units:      6 + rng.Intn(11),
			OpsPerUnit: float64(1+rng.Intn(5)) * 1e6,
		}
		if rng.Intn(2) == 0 {
			w.Policy = "self"
			if rng.Intn(2) == 0 {
				w.FaultTolerant = true
				w.LostTimeout = 500 * simcore.Millisecond
			}
		}
		return w, ranks
	default:
		return &scenario.Workload{
			Kind:     "pingpong",
			MsgBytes: 1 << uint(10+rng.Intn(8)), // 1KB .. 128KB
		}, 2
	}
}

// drawFlavor picks the fault plan. The crash flavor needs full-job
// resubmission to recover, which the resilient client only guarantees
// when the restarted application re-runs from scratch — fine for every
// workload — but it consumes a spare host, so it stays the rarest draw.
func drawFlavor(rng *rand.Rand, w *scenario.Workload) string {
	switch rng.Intn(5) {
	case 0, 1:
		return "net"
	case 2:
		if w.Kind == "npb" || w.Kind == "pingpong" {
			return "crash"
		}
		return "net"
	default:
		return ""
	}
}

// pickRankHosts spreads n ranks round-robin across the clusters so
// application traffic always crosses the wide area.
func pickRankHosts(rng *rand.Rand, spec *topology.Spec, n int) []string {
	// Hosts were appended cluster-by-cluster; regroup by their cluster
	// index (the first name component).
	byCluster := map[string][]string{}
	var order []string
	for _, h := range spec.Hosts {
		key := h.Name[:2] // "c0", "e1", ...
		if len(byCluster[key]) == 0 {
			order = append(order, key)
		}
		byCluster[key] = append(byCluster[key], h.Name)
	}
	var out []string
	for i := 0; len(out) < n; i++ {
		key := order[i%len(order)]
		hosts := byCluster[key]
		if len(hosts) == 0 {
			continue
		}
		out = append(out, hosts[0])
		byCluster[key] = hosts[1:]
		if exhausted(byCluster) {
			break
		}
	}
	return out
}

func exhausted(m map[string][]string) bool {
	for _, v := range m {
		if len(v) > 0 {
			return false
		}
	}
	return true
}

// drawNetFaults builds a transient-fault schedule over the WAN links:
// short outages and degradations the transport's retransmission rides
// out, plus competing CPU load — every event restores, so any workload
// completes (inflated).
func drawNetFaults(rng *rand.Rand, meta *Meta) *chaos.Schedule {
	n := 1 + rng.Intn(3)
	events := make([]chaos.Event, 0, n)
	at := simcore.Time(0)
	for i := 0; i < n; i++ {
		at += simcore.Time(simcore.Duration(10+rng.Intn(90)) * simcore.Millisecond)
		e := chaos.Event{At: at}
		link := meta.WANLinks[rng.Intn(len(meta.WANLinks))]
		switch rng.Intn(4) {
		case 0:
			e.Kind = chaos.LinkDown
			e.A, e.B = link[0], link[1]
			e.For = simcore.Duration(20+rng.Intn(61)) * simcore.Millisecond
		case 1:
			e.Kind = chaos.LinkFlap
			e.A, e.B = link[0], link[1]
			e.Down = simcore.Duration(5+rng.Intn(11)) * simcore.Millisecond
			e.Up = simcore.Duration(5+rng.Intn(11)) * simcore.Millisecond
			e.Count = 2 + rng.Intn(2)
		case 2:
			e.Kind = chaos.LinkDegrade
			e.A, e.B = link[0], link[1]
			e.BWFactor = 0.3 + 0.1*float64(rng.Intn(6))
			e.DelayFactor = float64(1 + rng.Intn(3))
			e.Loss = -1
			e.For = simcore.Duration(50+rng.Intn(101)) * simcore.Millisecond
		default:
			e.Kind = chaos.CPULoad
			e.Host = meta.RankHosts[rng.Intn(len(meta.RankHosts))]
			e.For = simcore.Duration(50+rng.Intn(101)) * simcore.Millisecond
		}
		if rng.Intn(3) == 0 {
			e.Jitter = simcore.Duration(1+rng.Intn(5)) * simcore.Millisecond
		}
		events = append(events, e)
	}
	return &chaos.Schedule{Name: "net-faults", Events: events}
}
