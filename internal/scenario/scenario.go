// Package scenario is the declarative layer of the MicroGrid: one typed
// Scenario value (or one text file) describes everything a run needs —
// the virtual grid (machine specs, a custom topology, or a GIS LDIF
// reference), the rate policy and scheduler quantum, the workload and
// its submission options, an optional fault schedule, and trace
// capture. The paper's workflow is exactly this separation: scientists
// pose "what-if" Grid configurations as data, never editing the tools
// (SC2000 §2); internal/core consumes a Scenario to build and run the
// grid, so experiments and user scenario files share one construction
// path.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"microgrid/internal/chaos"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// Machine is one virtual (or emulation platform) machine class: a
// scenario's target and emulate lines, and the paper's Fig. 9
// configurations (core.AlphaCluster, core.HPVM).
type Machine struct {
	// Name labels the configuration ("Alpha Cluster").
	Name string
	// Procs is the machine count.
	Procs int
	// ProcType is descriptive ("DEC21164, 533 MHz").
	ProcType string
	// CPUMIPS is the modeled per-processor speed.
	CPUMIPS float64
	// MemoryBytes is per-host memory (0 = unmodeled).
	MemoryBytes int64
	// NetName is descriptive ("100Mb Ethernet").
	NetName string
	// NetBandwidthBps is the switched-LAN per-link bandwidth.
	NetBandwidthBps float64
	// NetPerSideDelay is the host-to-switch propagation delay.
	NetPerSideDelay simcore.Duration
	// Compiler is descriptive, carried for the Fig. 9 table.
	Compiler string
}

// Scale returns a copy with CPU speed multiplied by k (Fig. 12's
// technology-scaling studies).
func (m Machine) Scale(cpuFactor float64) Machine {
	out := m
	out.CPUMIPS *= cpuFactor
	out.Name = fmt.Sprintf("%s %gx CPU", m.Name, cpuFactor)
	return out
}

// WithNetwork returns a copy with the network replaced (Fig. 12 holds the
// network at 1 Mb/s with 50 ms latency while scaling CPUs).
func (m Machine) WithNetwork(name string, bps float64, perSide simcore.Duration) Machine {
	out := m
	out.NetName = name
	out.NetBandwidthBps = bps
	out.NetPerSideDelay = perSide
	return out
}

// WithProcs returns a copy with a different machine count.
func (m Machine) WithProcs(n int) Machine {
	out := m
	out.Procs = n
	return out
}

// GISRef points the virtual-grid definition at a GIS directory instead
// of inline machine specs: the paper's "read desired network
// configuration files ... according to the virtual network information
// in the GIS" workflow (§2.4.2).
type GISRef struct {
	// File is the LDIF file holding the records (resolved relative to
	// the scenario file's directory when loaded from disk).
	File string
	// Config selects which configuration's records to use.
	Config string
	// PhysMIPS calibrates the physical machines named by the records'
	// Mapped_Physical_Resource attributes. Nil means direct mode.
	PhysMIPS map[string]float64
}

// Workload selects the application and its submission options.
type Workload struct {
	// Kind is "npb", "cactus", "workqueue" or "pingpong".
	Kind string

	// Bench and Class select the NPB kernel ("BT", 'S').
	Bench string
	Class byte

	// Edge and Steps size the CACTUS WaveToy run.
	Edge, Steps int

	// Units/OpsPerUnit/Policy/... configure the master-worker farm.
	// Policy is "" (static), "static" or "self".
	Units         int
	OpsPerUnit    float64
	Policy        string
	MinChunk      int
	ResultBytes   int
	FaultTolerant bool
	LostTimeout   simcore.Duration

	// MsgBytes is the ping-pong message size.
	MsgBytes int

	// Submission options (core.RunOptions).
	Ranks        int
	RanksPerHost int
	SamplePeriod simcore.Duration
	MaxWallTime  simcore.Duration
	BasePort     int
	Credential   string
}

// RetrySpec mirrors globus.SubmitRetryPolicy: the resilient-submission
// knobs.
type RetrySpec struct {
	StatusTimeout simcore.Duration
	MaxAttempts   int
	Backoff       simcore.Duration
	BackoffJitter simcore.Duration
	PortStride    int
}

// PartitionSpec places the grid model across PDES shards, one cluster
// of the virtual topology per shard (`partition auto` or `partition map
// node=shard ...`): a cluster is a connected component of
// sub-millisecond links (see netsim.Clusters), so only wide-area hops —
// whose latency is the engine's lookahead — cross shards. Partitioning
// requires direct mode (no emulation platform). On a serial engine or a
// single-cluster topology the spec is inert and the model stays on
// shard 0, so scenarios can carry it and still run anywhere.
type PartitionSpec struct {
	// Auto places the model by topology. The clusters that carry hosts
	// are dealt round-robin, ordered by smallest node name: the i-th
	// such cluster goes to shard i mod shards. Each router-only cluster
	// (a backbone router, say) then joins the shard of its nearest
	// placed neighbour, cheapest link first, so a site's uplinks stay on
	// its own shard. Router-only clusters no placed cluster reaches,
	// and every cluster of an all-router topology, fall back to cluster
	// i on shard i mod shards.
	Auto bool
	// Assign pins the cluster containing the named node to a shard
	// (exclusive with Auto); router-only clusters then join the pinned
	// clusters as they join dealt ones. Naming two nodes of one cluster
	// with different shards is an error.
	Assign map[string]int
}

// TraceSpec arms structured tracing on the run's engine.
type TraceSpec struct {
	// Mask selects the recorded categories (0 = all). Partitioned
	// builds strip CatEngine: dispatch telemetry is per-shard and
	// partition-dependent, while every other category is byte-identical
	// at any shard count.
	Mask trace.Category
	// BufSize bounds the ring in events (0 = trace.DefaultBufSize).
	BufSize int
}

// Scenario is one complete run description.
type Scenario struct {
	// Name identifies the scenario (one token, no spaces).
	Name string
	// Description is a one-line human summary (mgrid -list shows it).
	Description string
	// Seed drives the deterministic simulation.
	Seed int64
	// Target is the virtual grid being modeled. Exactly one of Target
	// and GIS must be set.
	Target *Machine
	// GIS defines the virtual grid from LDIF records instead.
	GIS *GISRef
	// Emulation, when non-nil, is the physical platform the virtual
	// grid is emulated on; nil is direct mode (with GIS, the PhysMIPS
	// calibration plays this role instead).
	Emulation *Machine
	// Rate is the simulation rate (0 = fastest feasible).
	Rate float64
	// Quantum is the scheduler quantum on the emulation hosts.
	Quantum simcore.Duration
	// Stagger de-synchronizes the scheduler daemons (fraction of the
	// duty cycle, 0..1).
	Stagger float64
	// FlowNetwork selects analytic flow-level network modeling.
	FlowNetwork bool
	// EngineShards selects the simulation engine: 0 is the serial
	// engine, n ≥ 1 the conservative parallel engine with n shards
	// (`engine parallel shards=n`).
	EngineShards int
	// Partition, when non-nil, places topology clusters on their own
	// shards (`partition auto` or `partition map node=shard ...`).
	Partition *PartitionSpec
	// SendOverheadOps / PerByteOps tune the per-message CPU model.
	SendOverheadOps, PerByteOps float64
	// Topology, when non-nil, replaces the switched LAN; HostRanks then
	// lists which topology hosts are the virtual hosts, in rank order.
	Topology  *topology.Spec
	HostRanks []string
	// TopoGen, when non-nil, generates the topology from a seeded family
	// instead (`topology generate kind=star hosts=100000 seed=7`);
	// exclusive with an inline topology section. Every generated host is
	// a virtual host; the workload's ranks= option sizes the working set.
	TopoGen *topology.GenSpec
	// Workload is what to run (nil for build-only scenarios).
	Workload *Workload
	// Retry, when non-nil, submits through the resilient client.
	Retry *RetrySpec
	// Trace, when non-nil, attaches a structured trace recorder.
	Trace *TraceSpec
	// Chaos, when non-nil, is armed against the grid before the run.
	Chaos *chaos.Schedule
}

// bareToken reports whether s is usable as an unquoted one-word token.
func bareToken(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t\"")
}

// cleanString reports whether s survives a quoted round trip.
func cleanString(s string) bool {
	return !strings.ContainsAny(s, "\"\n\r")
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks structural sanity; Parse runs it on every scenario,
// and every scenario it accepts re-serializes (String) to an equivalent
// one.
func (s *Scenario) Validate() error {
	if !bareToken(s.Name) {
		return fmt.Errorf("scenario needs a one-token name")
	}
	if !cleanString(s.Description) || strings.TrimSpace(s.Description) != s.Description {
		return fmt.Errorf("description must be one trimmed line without quotes")
	}
	if (s.Target == nil) == (s.GIS == nil) {
		return fmt.Errorf("exactly one of target and gis must be set")
	}
	if s.Target != nil {
		if err := s.Target.validate("target"); err != nil {
			return err
		}
	}
	if s.GIS != nil {
		if err := s.GIS.validate(); err != nil {
			return err
		}
		if s.Emulation != nil {
			return fmt.Errorf("gis and emulate conflict: the phys= calibration is the emulation platform")
		}
		if s.Topology != nil {
			return fmt.Errorf("gis and topology conflict: the GIS records define the network")
		}
		if s.TopoGen != nil {
			return fmt.Errorf("gis and topology generate conflict: the GIS records define the network")
		}
	}
	if s.Emulation != nil {
		if err := s.Emulation.validate("emulate"); err != nil {
			return err
		}
	}
	if !finite(s.Rate) || s.Rate < 0 {
		return fmt.Errorf("rate must be a non-negative finite number")
	}
	if s.Quantum < 0 {
		return fmt.Errorf("quantum must be non-negative")
	}
	if !finite(s.Stagger) || s.Stagger < 0 || s.Stagger > 1 {
		return fmt.Errorf("stagger must be in 0..1")
	}
	if s.EngineShards < 0 || s.EngineShards > 4096 {
		return fmt.Errorf("engine shards must be in 0..4096")
	}
	if s.Partition != nil {
		if err := s.Partition.validate(); err != nil {
			return err
		}
		if s.Emulation != nil {
			return fmt.Errorf("partition and emulate conflict: partitioning requires direct mode")
		}
		if s.GIS != nil && s.GIS.PhysMIPS != nil {
			return fmt.Errorf("partition and gis phys= conflict: partitioning requires direct mode")
		}
	}
	if !finite(s.SendOverheadOps) || s.SendOverheadOps < 0 ||
		!finite(s.PerByteOps) || s.PerByteOps < 0 {
		return fmt.Errorf("msgcost values must be non-negative finite numbers")
	}
	if s.Topology != nil {
		if len(s.HostRanks) == 0 {
			return fmt.Errorf("a custom topology needs a ranks line")
		}
		if err := s.Topology.Validate(); err != nil {
			return err
		}
		declared := map[string]bool{}
		for _, h := range s.Topology.Hosts {
			declared[h.Name] = true
		}
		for _, r := range s.HostRanks {
			if !declared[r] {
				return fmt.Errorf("ranks names %q, absent from topology", r)
			}
		}
	}
	if s.Topology == nil && len(s.HostRanks) > 0 {
		return fmt.Errorf("ranks needs a topology section")
	}
	if s.TopoGen != nil {
		if s.Topology != nil {
			return fmt.Errorf("topology generate conflicts with an inline topology section: declare the grid one way")
		}
		if err := s.TopoGen.Validate(); err != nil {
			return err
		}
	}
	for _, r := range s.HostRanks {
		if !bareToken(r) {
			return fmt.Errorf("bad rank host name %q", r)
		}
	}
	if s.Workload != nil {
		if err := s.Workload.validate(); err != nil {
			return err
		}
	}
	if s.Retry != nil {
		if err := s.Retry.validate(); err != nil {
			return err
		}
	}
	if s.Trace != nil && s.Trace.BufSize < 0 {
		return fmt.Errorf("trace buf must be non-negative")
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return err
		}
		if err := s.validateChaosTargets(); err != nil {
			return err
		}
	}
	return nil
}

// validateChaosTargets cross-checks chaos events against the virtual
// grid the scenario itself declares: host faults must name a rank host
// (custom topology) or a vmN host (switched LAN), link faults a
// declared topology link (a LAN joins each vmN to the implicit
// "lan-switch"). GIS-defined grids are resolved at load time, so their
// targets remain an arm-time check.
func (s *Scenario) validateChaosTargets() error {
	if s.Chaos == nil || s.GIS != nil || s.TopoGen != nil {
		// GIS- and generator-defined grids resolve their node names at
		// load/build time, so their targets remain an arm-time check.
		return nil
	}
	hosts := map[string]bool{}
	links := map[[2]string]bool{}
	addLink := func(a, b string) {
		links[[2]string{a, b}] = true
		links[[2]string{b, a}] = true
	}
	if s.Topology != nil {
		for _, r := range s.HostRanks {
			hosts[r] = true
		}
		for _, l := range s.Topology.Links {
			addLink(l.A, l.B)
		}
	} else {
		if s.Target == nil {
			return nil
		}
		for i := 0; i < s.Target.Procs; i++ {
			h := fmt.Sprintf("vm%d", i)
			hosts[h] = true
			addLink(h, "lan-switch")
		}
	}
	for i, e := range s.Chaos.Events {
		switch e.Kind {
		case chaos.HostCrash, chaos.CPULoad, chaos.MemPressure:
			if !hosts[e.Host] {
				return fmt.Errorf("chaos event %d (%s) targets undeclared host %q", i, e.Kind, e.Host)
			}
		case chaos.LinkDown, chaos.LinkFlap, chaos.LinkDegrade:
			if !links[[2]string{e.A, e.B}] {
				return fmt.Errorf("chaos event %d (%s) targets undeclared link %q <-> %q", i, e.Kind, e.A, e.B)
			}
		}
	}
	return nil
}

func (m *Machine) validate(directive string) error {
	if m.Procs < 1 {
		return fmt.Errorf("%s needs procs >= 1", directive)
	}
	if !finite(m.CPUMIPS) || m.CPUMIPS <= 0 {
		return fmt.Errorf("%s needs cpu > 0", directive)
	}
	if m.MemoryBytes < 0 {
		return fmt.Errorf("%s mem must be non-negative", directive)
	}
	if !finite(m.NetBandwidthBps) || m.NetBandwidthBps < 0 {
		return fmt.Errorf("%s net must be non-negative", directive)
	}
	if m.NetPerSideDelay < 0 {
		return fmt.Errorf("%s delay must be non-negative", directive)
	}
	for _, v := range []string{m.Name, m.ProcType, m.NetName, m.Compiler} {
		if !cleanString(v) {
			return fmt.Errorf("%s string options must not contain quotes or newlines", directive)
		}
	}
	return nil
}

func (g *GISRef) validate() error {
	if g.File == "" || !cleanString(g.File) {
		return fmt.Errorf("gis needs file=")
	}
	if g.Config == "" || !cleanString(g.Config) {
		return fmt.Errorf("gis needs config=")
	}
	if g.PhysMIPS != nil && len(g.PhysMIPS) == 0 {
		return fmt.Errorf("gis phys= must not be empty")
	}
	for name, mips := range g.PhysMIPS {
		if !bareToken(name) || strings.ContainsAny(name, ":,=") {
			return fmt.Errorf("bad phys machine name %q", name)
		}
		if !finite(mips) || mips <= 0 {
			return fmt.Errorf("phys %s needs a positive speed", name)
		}
	}
	return nil
}

// physNames returns the calibration's machine names, sorted — the
// canonical serialization order.
func (g *GISRef) physNames() []string {
	names := make([]string, 0, len(g.PhysMIPS))
	for n := range g.PhysMIPS {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func classByte(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}

func (w *Workload) validate() error {
	switch w.Kind {
	case "npb":
		if !bareToken(w.Bench) {
			return fmt.Errorf("workload npb needs bench=")
		}
		if !classByte(w.Class) {
			return fmt.Errorf("workload npb needs class= (one letter or digit)")
		}
	case "cactus":
		if w.Edge < 1 || w.Steps < 1 {
			return fmt.Errorf("workload cactus needs edge >= 1 and steps >= 1")
		}
	case "workqueue":
		if w.Units < 1 {
			return fmt.Errorf("workload workqueue needs units >= 1")
		}
		if !finite(w.OpsPerUnit) || w.OpsPerUnit <= 0 {
			return fmt.Errorf("workload workqueue needs ops > 0")
		}
		switch w.Policy {
		case "", "static", "self":
		default:
			return fmt.Errorf("workload workqueue policy must be static or self")
		}
		if w.FaultTolerant && w.Policy != "self" {
			return fmt.Errorf("fault tolerance requires policy=self")
		}
		if w.MinChunk < 0 || w.ResultBytes < 0 || w.LostTimeout < 0 {
			return fmt.Errorf("workload workqueue options must be non-negative")
		}
	case "pingpong":
		if w.MsgBytes < 1 {
			return fmt.Errorf("workload pingpong needs bytes >= 1")
		}
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	if w.Ranks < 0 || w.RanksPerHost < 0 {
		return fmt.Errorf("ranks and rph must be non-negative")
	}
	if w.SamplePeriod < 0 || w.MaxWallTime < 0 {
		return fmt.Errorf("sample and walltime must be non-negative")
	}
	if w.BasePort < 0 || w.BasePort > 65535 {
		return fmt.Errorf("port must be in 0..65535")
	}
	if !cleanString(w.Credential) {
		return fmt.Errorf("credential must not contain quotes or newlines")
	}
	return nil
}

func (p *PartitionSpec) validate() error {
	if p.Auto == (len(p.Assign) > 0) {
		return fmt.Errorf("partition needs exactly one of auto and a map")
	}
	for name, shard := range p.Assign {
		if !bareToken(name) || strings.ContainsAny(name, "=,") {
			return fmt.Errorf("bad partition node name %q", name)
		}
		if shard < 0 || shard > 4095 {
			return fmt.Errorf("partition shard for %s must be in 0..4095", name)
		}
	}
	return nil
}

// assignNames returns the pinned node names, sorted — the canonical
// serialization order.
func (p *PartitionSpec) assignNames() []string {
	names := make([]string, 0, len(p.Assign))
	for n := range p.Assign {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *RetrySpec) validate() error {
	if r.StatusTimeout <= 0 {
		return fmt.Errorf("retry needs timeout > 0")
	}
	if r.MaxAttempts < 1 {
		return fmt.Errorf("retry needs attempts >= 1")
	}
	if r.Backoff < 0 || r.BackoffJitter < 0 || r.PortStride < 0 {
		return fmt.Errorf("retry options must be non-negative")
	}
	return nil
}
