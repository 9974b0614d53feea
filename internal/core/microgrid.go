package core

import (
	"fmt"
	"sync"

	"microgrid/internal/chaos"
	"microgrid/internal/gis"
	"microgrid/internal/globus"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
	"microgrid/internal/virtual"
	"microgrid/internal/vtime"
)

// OrgUnit is the GIS organizational unit all records live under, matching
// the paper's example records.
const OrgUnit = "Concurrent Systems Architecture Group"

// BuildConfig assembles one MicroGrid instance.
type BuildConfig struct {
	// Seed drives the deterministic simulation.
	Seed int64
	// Target is the virtual grid being modeled.
	Target scenario.Machine
	// Emulation, when non-nil, is the physical platform the virtual grid
	// is emulated on (the MicroGrid run). Nil means direct mode: the
	// target hardware is modeled natively (the "physical grid" reference
	// run).
	Emulation *scenario.Machine
	// Rate is the simulation rate; 0 means the fastest feasible.
	Rate float64
	// Quantum is the MicroGrid scheduler quantum on the emulation hosts
	// (default 10 ms). Fig. 11 sweeps this.
	Quantum simcore.Duration
	// Topo, when non-nil, replaces the default switched LAN with a custom
	// topology (e.g. the vBNS testbed); HostRanks then lists which spec
	// hosts are the virtual hosts, in rank order.
	Topo      *topology.Spec
	HostRanks []string
	// TopoGen, when non-nil, generates the topology from a seeded spec
	// (see topology.Generate) instead of Topo/HostRanks: every generated
	// host becomes a virtual host, in generation order, and the build
	// materializes host state lazily so a 100k-host declaration costs
	// only its working set. Mutually exclusive with Topo.
	TopoGen *topology.GenSpec
	// SendOverheadOps / PerByteOps tune the per-message CPU model.
	SendOverheadOps, PerByteOps float64
	// StaggerSpread de-synchronizes the hosts' scheduler daemons by this
	// fraction of their duty cycle (0 = aligned; see virtual.Config).
	StaggerSpread float64
	// FlowNetwork runs every link of the virtual network at flow fidelity
	// instead of packet-level simulation (faster, lower fidelity);
	// loopback connections keep the packet loopback path. See
	// virtual.Config.FlowNetwork.
	FlowNetwork bool
	// Shards selects the simulation engine: 0 (default) runs the classic
	// serial engine; n ≥ 1 runs the conservative parallel engine with n
	// shards, whose lookahead is derived from the virtual network's
	// minimum link latency. Without Partition the grid model occupies
	// shard 0 (see DESIGN.md §10), so results are bit-identical to serial
	// at any shard count; engine-level workloads spread across all shards.
	Shards int
	// Partition, with Shards ≥ 1, spreads the grid model itself across
	// the shards: each cluster of the virtual topology (connected
	// component of sub-millisecond links) runs whole on one shard (see
	// scenario.PartitionSpec for the placement), and wide-area hops
	// between shards become cross-shard events with the inter-cluster
	// latency as lookahead. Requires direct mode (nil Emulation); a
	// single-cluster topology partitions to a no-op. Results are
	// bit-identical at any shard count — only CatEngine dispatch
	// telemetry (stripped from partitioned traces) is shard-dependent.
	Partition *scenario.PartitionSpec
	// Trace, when non-nil, attaches a structured trace recorder to every
	// engine this instance's model spans; MicroGrid.Trace returns the
	// merged run. Nil traces nothing.
	Trace *scenario.TraceSpec
}

// MicroGrid is an assembled simulation: the virtual grid, its GIS, and
// the Globus stack, ready to run one application.
type MicroGrid struct {
	Eng      *simcore.Engine
	Grid     *virtual.Grid
	GIS      *gis.Server
	Registry *globus.Registry
	// Hosts are the virtual host names in rank order.
	Hosts []string
	// ConfigName groups this grid's GIS records.
	ConfigName  string
	cfg         BuildConfig
	direct      bool
	ran         bool
	gkMu        sync.Mutex
	gatekeepers map[string]*globus.Gatekeeper
	// lazy marks a grid whose hosts (and their gatekeepers/GIS records)
	// materialize on first touch; RunApp brings up its working set via
	// EnsureHost before submitting. ensured tracks which hosts have had
	// their middleware started (distinct from virtual-layer
	// materialization: wireGISHome touches Hosts[0] without it).
	lazy     bool
	ensured  map[string]bool
	injector *chaos.Injector
	// par is the parallel engine coordinating Eng (= its shard 0) and
	// its peers; nil when Eng runs alone.
	par *simcore.ParallelEngine
	// plan is the resolved cluster→shard placement (nil when the model
	// is not partitioned).
	plan *partitionPlan
	// recs are the trace recorders of Eng or of every shard (nil when
	// untraced); Trace merges them.
	recs []*trace.Recorder
	// The GIS directory lives with Hosts[0]; on a multi-cluster grid,
	// updates from another cluster bear the inter-cluster latency (and,
	// when partitioned, cross onto the GIS's shard) so discovery sees
	// transitions at the same virtual instants at any shard count.
	// clusters is the routing hierarchy's partition, snapshotted at
	// build time so shard goroutines only read it; it is empty on a
	// single-cluster grid.
	clusters   netsim.ClusterIDs
	gisCluster int
	gisDelay   simcore.Duration
	gisEng     *simcore.Engine
}

// ParallelEngine returns the parallel engine driving this instance, or
// nil when it runs on the serial engine.
func (m *MicroGrid) ParallelEngine() *simcore.ParallelEngine { return m.par }

// runSim executes the simulation: the parallel engine coordinating Eng
// (= its shard 0) and its peers, or Eng itself.
func (m *MicroGrid) runSim() error {
	if m.par != nil {
		return m.par.Run()
	}
	return m.Eng.Run()
}

// Build constructs the MicroGrid: it lowers the config to virtual hosts,
// physical machines, wiring and laziness, and hands them to assemble.
func Build(cfg BuildConfig) (*MicroGrid, error) {
	if cfg.Target.Procs <= 0 {
		return nil, fmt.Errorf("core: target needs at least one processor")
	}
	configName := cfg.Target.Name
	if cfg.Emulation != nil {
		configName += " (emulated)"
	}

	// Topology: explicit spec, generated spec, or the default LAN.
	topo := cfg.Topo
	generated := false
	if cfg.TopoGen != nil {
		if topo != nil {
			return nil, fmt.Errorf("core: TopoGen and Topo are mutually exclusive")
		}
		spec, err := topology.Generate(*cfg.TopoGen)
		if err != nil {
			return nil, err
		}
		topo = spec
		generated = true
	}

	// Virtual host set.
	var hostNames []string
	var hostCfgs []virtual.HostConfig
	base := netsim.MustParseAddr("1.11.11.1")
	if topo != nil {
		if generated {
			// Every generated host is a virtual host, in generation order
			// (clusters front-loaded, so a small working set stays local).
			hostNames = make([]string, len(topo.Hosts))
			for i, h := range topo.Hosts {
				hostNames[i] = h.Name
			}
		} else if len(cfg.HostRanks) == 0 {
			return nil, fmt.Errorf("core: custom topology requires HostRanks")
		} else {
			hostNames = append(hostNames, cfg.HostRanks...)
		}
	} else {
		for i := 0; i < cfg.Target.Procs; i++ {
			name := fmt.Sprintf("vm%d", i)
			hostNames = append(hostNames, name)
			hostCfgs = append(hostCfgs, virtual.HostConfig{
				Name: name, IP: base + netsim.Addr(i),
				CPUSpeedMIPS: cfg.Target.CPUMIPS,
				MemoryBytes:  cfg.Target.MemoryBytes,
			})
		}
	}
	// Lazy materialization keeps a declared-but-untouched host down to
	// its netsim node: generated topologies always (their host counts
	// are the point), hand-written grids past a threshold no committed
	// scenario reaches (so small grids keep their historical build path
	// bit-for-bit). A lazy grid is declared by template, so its hosts
	// get no HostConfig: a generated spec's hosts are all declared by
	// construction, and a hand-written one's ranks are checked by name
	// here and by node in the virtual layer.
	lazy := cfg.Emulation == nil && (generated || len(hostNames) >= lazyHostThreshold)
	if topo != nil && !(lazy && generated) {
		byName := map[string]string{}
		for _, h := range topo.Hosts {
			byName[h.Name] = h.Addr
		}
		for _, name := range hostNames {
			addrStr, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("core: HostRanks names %q, absent from topology", name)
			}
			if lazy {
				continue
			}
			addr, err := netsim.ParseAddr(addrStr)
			if err != nil {
				return nil, err
			}
			hostCfgs = append(hostCfgs, virtual.HostConfig{
				Name: name, IP: addr,
				CPUSpeedMIPS: cfg.Target.CPUMIPS,
				MemoryBytes:  cfg.Target.MemoryBytes,
			})
		}
	}

	vcfg := gridConfig(cfg)
	// Physical platform and mapping.
	switch {
	case lazy:
		vcfg.Direct = true
		vcfg.Lazy = &virtual.LazyHosts{CPUSpeedMIPS: cfg.Target.CPUMIPS, MemoryBytes: cfg.Target.MemoryBytes}
		if topo != nil && !generated {
			vcfg.Lazy.Names = hostNames
		}
	case cfg.Emulation == nil:
		vcfg.Direct = true
		for i := range hostCfgs {
			pname := "phys-" + hostCfgs[i].Name
			hostCfgs[i].MappedPhysical = pname
			vcfg.Phys = append(vcfg.Phys, virtual.PhysConfig{
				Name: pname, CPUSpeedMIPS: cfg.Target.CPUMIPS,
			})
		}
		vcfg.Hosts = hostCfgs
	default:
		for i := 0; i < cfg.Emulation.Procs; i++ {
			vcfg.Phys = append(vcfg.Phys, virtual.PhysConfig{
				Name:         fmt.Sprintf("%s-%d", "emul", i),
				CPUSpeedMIPS: cfg.Emulation.CPUMIPS,
				Quantum:      cfg.Quantum,
			})
		}
		for i := range hostCfgs {
			hostCfgs[i].MappedPhysical = fmt.Sprintf("emul-%d", i%cfg.Emulation.Procs)
		}
		vcfg.Hosts = hostCfgs
	}

	// Topology wiring.
	wire := virtual.LANWire(hostCfgs, cfg.Target.NetBandwidthBps, cfg.Target.NetPerSideDelay)
	if topo != nil {
		wire = topo.Apply
	}

	m, err := assemble(cfg, vcfg, wire, gis.NewServer(), hostNames, configName)
	if err != nil {
		return nil, err
	}
	// Network record(s), in the paper's Fig. 3 style.
	netRec := gis.VirtualNetwork{
		Prefix:       "1.11.11.0",
		Parent:       "1.11.0.0",
		OrgUnit:      OrgUnit,
		ConfigName:   configName,
		Type:         "LAN",
		BandwidthBps: cfg.Target.NetBandwidthBps,
		Delay:        cfg.Target.NetPerSideDelay,
	}
	m.GIS.Upsert(netRec.Entry())
	return m, nil
}

// gridConfig carries a config's model knobs over to the virtual layer;
// the front ends add the hosts, physical machines and laziness.
func gridConfig(cfg BuildConfig) virtual.Config {
	return virtual.Config{
		Rate:            cfg.Rate,
		SendOverheadOps: cfg.SendOverheadOps,
		PerByteOps:      cfg.PerByteOps,
		StaggerSpread:   cfg.StaggerSpread,
		FlowNetwork:     cfg.FlowNetwork,
	}
}

// assemble is the one path from a lowered grid description to a built
// MicroGrid, shared by Build and buildFromGIS: it picks the engine,
// places the model on shards, builds the virtual grid, attaches trace
// recorders, homes the GIS and — on an eager grid — starts a gatekeeper
// on every host, registered in server.
func assemble(cfg BuildConfig, vcfg virtual.Config, wire func(*netsim.Network, func(netsim.LinkConfig) netsim.LinkConfig) error,
	server *gis.Server, hostNames []string, configName string) (*MicroGrid, error) {
	if cfg.Partition != nil && !vcfg.Direct {
		return nil, fmt.Errorf("core: partitioning requires direct mode (no emulation platform)")
	}
	var eng *simcore.Engine
	var par *simcore.ParallelEngine
	if cfg.Shards >= 1 {
		par = simcore.NewParallelEngine(cfg.Seed, cfg.Shards)
		eng = par.Shard(0)
	} else {
		eng = simcore.NewEngine(cfg.Seed)
	}

	var planOf func() (*partitionPlan, error)
	if par != nil && cfg.Partition != nil {
		vcfg.AssignEngines, planOf = partitionAssign(par, cfg.Partition)
	}
	grid, err := virtual.NewGrid(eng, vcfg, wire)
	if err != nil {
		return nil, err
	}
	var plan *partitionPlan
	if planOf != nil {
		if plan, err = planOf(); err != nil {
			return nil, err
		}
	}
	if par != nil {
		// Conservative lookahead: no packet crosses the virtual network
		// faster than its cheapest link. Partitioned, only wide-area hops
		// cross shards, so the window is the cheapest inter-cluster link.
		la, ok := grid.Network().MinLinkDelay()
		if plan != nil {
			la, ok = plan.lookahead, true
		}
		if ok && la <= 0 {
			var link string
			for _, l := range grid.Network().Links() {
				if l.Config.Delay == la {
					link = l.A.Name + "--" + l.B.Name
					break
				}
			}
			return nil, fmt.Errorf("core: link %s has delay %v; the parallel engine needs a "+
				"positive lookahead, which it takes from the cheapest link", link, la)
		}
		if ok {
			par.SetLookahead(la)
		}
	}
	recs := attachRecorders(eng, par, plan, cfg.Trace, configName)

	m := &MicroGrid{
		Eng:         eng,
		Grid:        grid,
		GIS:         server,
		Registry:    globus.NewRegistry(),
		Hosts:       hostNames,
		ConfigName:  configName,
		cfg:         cfg,
		direct:      vcfg.Direct,
		gatekeepers: make(map[string]*globus.Gatekeeper),
		lazy:        vcfg.Lazy != nil,
		ensured:     make(map[string]bool),
		par:         par,
		plan:        plan,
		recs:        recs,
	}
	m.wireGISHome()

	// Globus: a gatekeeper on every virtual host, registered in the GIS.
	// A lazy grid defers this to EnsureHost — RunApp brings up exactly
	// its working set before submitting.
	if !m.lazy {
		for _, name := range hostNames {
			gk, err := globus.StartGatekeeper(grid.Host(name), 0, m.Registry)
			if err != nil {
				return nil, err
			}
			gk.RegisterInGIS(m.GIS, OrgUnit, configName, grid.Host(name).Phys.Name)
			m.gatekeepers[name] = gk
		}
	}
	return m, nil
}

// wireGISHome reads the cluster structure the GIS-latency model needs
// from the routing hierarchy the grid's network was built with. On a
// multi-cluster grid — partitioned or not — middleware updates to the
// GIS from another cluster bear the inter-cluster latency, so a serial
// run and a partitioned run of the same wide-area grid see identical
// discovery timing.
func (m *MicroGrid) wireGISHome() {
	nw := m.Grid.Network()
	clusters := nw.ClusterIDs()
	if clusters.Len() < 2 {
		return
	}
	m.clusters = clusters
	home := m.Grid.Host(m.Hosts[0])
	m.gisCluster = clusters.Of(home.Node)
	m.gisEng = home.Engine()
	if d, ok := nw.InterClusterMinDelay(); ok {
		m.gisDelay = d
	} else if d, ok := nw.MinLinkDelay(); ok {
		m.gisDelay = d
	}
}

// gisDo runs fn against the GIS directory, which lives with Hosts[0]
// (where the submitting client runs). Same-cluster callers mutate it
// directly; callers in another cluster reach it after the inter-cluster
// latency — a cross-shard send when the model is partitioned, a plain
// delay otherwise, so both execute fn at the same virtual instant.
func (m *MicroGrid) gisDo(h *virtual.Host, fn func()) {
	if m.clusters.Len() == 0 || m.clusters.Of(h.Node) == m.gisCluster {
		fn()
		return
	}
	h.Engine().SendTo(m.gisEng, m.gisDelay, fn)
}

// takeGatekeeper removes and returns a host's gatekeeper; putGatekeeper
// installs one. Both are safe to call from any shard.
func (m *MicroGrid) takeGatekeeper(name string) *globus.Gatekeeper {
	m.gkMu.Lock()
	defer m.gkMu.Unlock()
	gk := m.gatekeepers[name]
	delete(m.gatekeepers, name)
	return gk
}

func (m *MicroGrid) putGatekeeper(name string, gk *globus.Gatekeeper) {
	m.gkMu.Lock()
	defer m.gkMu.Unlock()
	m.gatekeepers[name] = gk
}

// lazyHostThreshold is the declared-host count past which a
// hand-written direct-mode grid builds lazily. Committed scenarios are
// orders of magnitude smaller, so their build path is unchanged.
const lazyHostThreshold = 4096

// LazyHosts reports whether this grid materializes hosts on first
// touch.
func (m *MicroGrid) LazyHosts() bool { return m.lazy }

// EnsureHost materializes a declared host and its middleware — the
// virtual host runtime, a gatekeeper, and the host's GIS record. On an
// eager grid (or an already-ensured host) it is a no-op. RunApp calls
// it for every host in the job's working set before submitting.
func (m *MicroGrid) EnsureHost(name string) error {
	if !m.lazy {
		return nil
	}
	if m.ensured[name] {
		return nil
	}
	h := m.Grid.Host(name)
	if h == nil {
		return fmt.Errorf("core: unknown virtual host %q", name)
	}
	gk, err := globus.StartGatekeeper(h, 0, m.Registry)
	if err != nil {
		return err
	}
	gk.RegisterInGIS(m.GIS, OrgUnit, m.ConfigName, h.Phys.Name)
	m.putGatekeeper(name, gk)
	m.ensured[name] = true
	return nil
}

// registeredHostCount reports how many hosts currently hold a
// gatekeeper (on a lazy grid: the materialized working set).
func (m *MicroGrid) registeredHostCount() int {
	m.gkMu.Lock()
	defer m.gkMu.Unlock()
	return len(m.gatekeepers)
}

// Rate returns the grid's simulation rate.
func (m *MicroGrid) Rate() float64 { return m.Grid.Rate() }

// Clock returns the grid's virtual clock.
func (m *MicroGrid) Clock() *vtime.Clock { return m.Grid.Clock() }

// IsDirect reports whether this instance models the target natively.
func (m *MicroGrid) IsDirect() bool { return m.direct }

// ArmChaos arms a fault schedule against this grid and wires the
// middleware to notice failures: when a host crashes its gatekeeper's
// GIS record disappears (so discovery stops offering the host), and
// when it reboots a fresh gatekeeper starts and re-registers. Call
// before RunApp; the injections fire while the application runs.
func (m *MicroGrid) ArmChaos(s *chaos.Schedule) (*chaos.Injector, error) {
	if m.injector != nil {
		return nil, fmt.Errorf("core: chaos already armed")
	}
	m.Grid.OnCrash = func(h *virtual.Host) {
		if gk := m.takeGatekeeper(h.Name); gk != nil {
			m.gisDo(h, func() { gk.DeregisterFromGIS(m.GIS, OrgUnit) })
		}
	}
	m.Grid.OnReboot = func(h *virtual.Host) {
		// The gatekeeper restarts locally (on the host's shard); only
		// its directory record travels to the GIS.
		gk, err := globus.StartGatekeeper(h, 0, m.Registry)
		if err != nil {
			return // host will stay out of the GIS; discovery skips it
		}
		m.putGatekeeper(h.Name, gk)
		m.gisDo(h, func() { gk.RegisterInGIS(m.GIS, OrgUnit, m.ConfigName, h.Phys.Name) })
	}
	in := chaos.NewInjector(m.Eng, m.Grid.Network(), m.Grid)
	if err := in.Arm(s); err != nil {
		return nil, err
	}
	m.injector = in
	return in, nil
}

// ChaosTimeline returns the armed injector's timeline (nil without
// ArmChaos).
func (m *MicroGrid) ChaosTimeline() []chaos.TimelineEntry {
	if m.injector == nil {
		return nil
	}
	return m.injector.Timeline()
}
