// Package virtual implements the MicroGrid's virtualization layer (paper
// §2.2): the virtual Grid an application perceives. Applications are
// written against Process — the analog of the intercepted libc/Globus
// interface (gethostname, sockets, gettimeofday, memory allocation,
// compute) — and observe only virtual host names, virtual IPs and virtual
// time, regardless of the physical resources underneath.
//
// A Grid maps every virtual host onto a physical cpusched.Host. In
// emulation mode each virtual host's processes are governed by the
// Figure-4 CPU-fraction scheduler at fraction = vMIPS·rate/physMIPS, the
// network simulator runs with delays scaled by 1/rate and bandwidths by
// rate (so deliveries land at the correct *virtual* instants), and
// Gettimeofday returns rate-scaled time. In direct mode (rate 1, no
// controllers) the same application code runs at full speed on a model of
// the target hardware — that is the "physical grid" reference run the
// paper validates against.
package virtual

import (
	"fmt"

	"microgrid/internal/cpusched"
	"microgrid/internal/memmodel"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/vtime"
)

// HostConfig describes one virtual host.
type HostConfig struct {
	// Name is the virtual host name (e.g. "vm0.ucsd.edu").
	Name string
	// IP is the host's address on the virtual network.
	IP netsim.Addr
	// CPUSpeedMIPS is the virtual processor speed.
	CPUSpeedMIPS float64
	// MemoryBytes is the virtual memory capacity (0 = unlimited 4 GB).
	MemoryBytes int64
	// MappedPhysical names the physical host this virtual host runs on.
	MappedPhysical string
}

// PhysConfig describes one physical (emulation) machine.
type PhysConfig struct {
	Name         string
	CPUSpeedMIPS float64
	// Quantum is the MicroGrid scheduler quantum on this machine
	// (cpusched.DefaultQuantum when zero). Fig. 11 sweeps this.
	Quantum simcore.Duration
}

// Config assembles a virtual grid.
type Config struct {
	// Hosts are the virtual hosts.
	Hosts []HostConfig
	// Phys are the physical machines; every MappedPhysical must name one.
	Phys []PhysConfig
	// Rate is the simulation rate (virtual seconds per physical second).
	// Zero means "fastest feasible" as computed from the resource specs.
	Rate float64
	// Direct disables fraction controllers and time scaling: the grid
	// models the target hardware natively (the reference run). Direct
	// requires every virtual host to have a dedicated physical host at
	// least as fast as the virtual speed.
	Direct bool
	// SendOverheadOps and PerByteOps are the CPU cost charged to a
	// process per message and per payload byte (virtual-host ops).
	// Defaults: 8000 and 0.5.
	SendOverheadOps float64
	PerByteOps      float64
	// FlowNetwork runs every link of the virtual network at
	// netsim.FidelityFlow, whatever fidelity the topology declared: data
	// transfers complete analytically — far fewer events, no congestion
	// fidelity (the speed-vs-fidelity axis of the paper's future work).
	// Handshakes and FINs cross the flow links too; loopback connections
	// keep the packet loopback path.
	FlowNetwork bool
	// StaggerSpread offsets each host's scheduler-daemon start within its
	// duty cycle, modeling daemons launched at different moments on
	// different machines: 0 (the default) is a perfectly coordinated
	// deployment with phase-aligned windows; 1 spreads starts across the
	// whole cycle (worst case). Staggered phases reproduce the
	// quantum-dependent modeling errors of Fig. 11.
	StaggerSpread float64
	// AssignEngines, when set, partitions the grid across PDES shards: it
	// is consulted after the topology is wired and returns, per netsim
	// node name, the engine that node — and the virtual host attached to
	// it — lives on. Unlisted nodes stay on the grid's engine. Physical
	// hosts inherit the engine of the virtual hosts mapped onto them; a
	// physical host shared by virtual hosts on different engines is an
	// error.
	AssignEngines func(nw *netsim.Network) map[string]*simcore.Engine
	// Lazy, when non-nil, declares the hosts by rule instead of by list
	// (Hosts and Phys stay empty) and defers per-host materialization —
	// the clock, CPU scheduler task, memory limiter, and physical host —
	// to the first Host() touch. The topology is still wired in full
	// (routing needs every node), but a grid declaring 100k hosts
	// allocates host runtime state only for the hosts a workload
	// actually touches. Lazy requires Direct mode: fraction controllers
	// are placed at build time and would defeat the point. The
	// declaration is still validated at build, so Host() cannot fail
	// later.
	Lazy *LazyHosts
}

// LazyHosts declares a lazy grid's hosts. A declared host is a host
// node of the wired topology: its name and address are the node's, its
// CPU and memory are the template's, and it runs directly on a physical
// machine of its own, "phys-<name>", as fast as its virtual CPU. Until
// first touched it costs its netsim node (and, with Names, one bit).
type LazyHosts struct {
	// CPUSpeedMIPS is every declared host's virtual processor speed.
	CPUSpeedMIPS float64
	// MemoryBytes is every declared host's memory (0 = unlimited 4 GB).
	MemoryBytes int64
	// Names lists the declared hosts; nil declares every host node the
	// wire function creates.
	Names []string
}

// Grid is a running virtual grid.
type Grid struct {
	eng    *simcore.Engine
	clock  *vtime.Clock
	vnet   *netsim.Network
	rate   float64
	direct bool
	// flow forces every link to FidelityFlow (Config.FlowNetwork).
	flow  bool
	hosts map[string]*Host
	byIP  map[netsim.Addr]*Host
	phys  map[string]*cpusched.Host
	// controllers holds one MicroGrid scheduler daemon per physical host
	// (emulated grids only).
	controllers map[string]*cpusched.MultiController
	stagger     float64

	// lazy grids keep no record of a declared-but-untouched host: it is
	// its netsim node plus the shared template, and materialize adds it
	// to hosts/byIP on first Host() touch. declared marks the declared
	// host nodes by node index when LazyHosts.Names chose a subset (nil:
	// every host node); ndeclared counts them.
	lazy      *LazyHosts
	declared  []uint64
	ndeclared int

	sendOverheadOps float64
	perByteOps      float64

	// OnCrash and OnReboot, when set, observe host state transitions made
	// by Host.Crash/Host.Reboot. The assembled system (internal/core) uses
	// them to tear down and restart middleware daemons — a crashed host's
	// gatekeeper closes and its GIS record disappears; a rebooted host
	// re-registers.
	OnCrash  func(*Host)
	OnReboot func(*Host)
}

// Host is one virtual host.
type Host struct {
	grid *Grid
	// eng is the PDES shard this host's processes run on (the grid's
	// engine unless Config.AssignEngines placed it elsewhere); clock is
	// the host-local view of virtual time on that engine.
	eng   *simcore.Engine
	clock *vtime.Clock
	// Name and IP are what applications observe.
	Name string
	IP   netsim.Addr
	// CPUSpeedMIPS is the virtual processor speed.
	CPUSpeedMIPS float64
	// Node is the host's attachment point in the (scaled) network
	// simulator; it must be wired by the topology builder before use.
	Node *netsim.Node
	// Mem enforces the host's memory capacity.
	Mem *memmodel.Limiter
	// Phys is the physical machine hosting this virtual host.
	Phys *cpusched.Host
	// Fraction is the physical CPU share allocated (1 in direct mode).
	Fraction float64

	task *cpusched.Task
	job  *cpusched.ControlledJob
	// cpu serializes the single virtual CPU among this host's processes.
	cpu    *simcore.Mutex
	nprocs int
	// down marks a crashed host (see Crash/Reboot in crash.go); procs
	// tracks resident processes so a crash can kill them.
	down  bool
	procs []*Process
}

// NewGrid builds the virtual grid runtime. The caller supplies the virtual
// network topology through wire: it receives the scaled netsim.Network and
// must create one netsim node per virtual host (matching Name and IP) plus
// any routers/links. Link parameters passed to scale() are converted from
// virtual to engine units.
func NewGrid(eng *simcore.Engine, cfg Config, wire func(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error) (*Grid, error) {
	if len(cfg.Hosts) == 0 && cfg.Lazy == nil {
		return nil, fmt.Errorf("virtual: no hosts configured")
	}
	physCfg := make(map[string]PhysConfig, len(cfg.Phys))
	for _, pc := range cfg.Phys {
		if pc.CPUSpeedMIPS <= 0 {
			return nil, fmt.Errorf("virtual: physical host %s needs positive speed", pc.Name)
		}
		physCfg[pc.Name] = pc
	}

	rate, err := gridRate(&cfg, physCfg)
	if err != nil {
		return nil, err
	}

	g := &Grid{
		eng:             eng,
		clock:           vtime.NewClock(eng, rate),
		rate:            rate,
		direct:          cfg.Direct,
		flow:            cfg.FlowNetwork,
		hosts:           make(map[string]*Host),
		byIP:            make(map[netsim.Addr]*Host),
		phys:            make(map[string]*cpusched.Host, len(cfg.Phys)),
		controllers:     make(map[string]*cpusched.MultiController),
		stagger:         cfg.StaggerSpread,
		sendOverheadOps: cfg.SendOverheadOps,
		perByteOps:      cfg.PerByteOps,
	}
	if g.sendOverheadOps == 0 {
		g.sendOverheadOps = 8000
	}
	if g.perByteOps == 0 {
		g.perByteOps = 0.5
	}

	g.vnet = netsim.New(eng)
	if err := wire(g.vnet, g.ScaleLink); err != nil {
		return nil, err
	}
	g.vnet.ComputeRoutes()

	if cfg.AssignEngines != nil {
		for name, e := range cfg.AssignEngines(g.vnet) {
			nd := g.vnet.Node(name)
			if nd == nil {
				return nil, fmt.Errorf("virtual: engine assignment names unknown node %q", name)
			}
			g.vnet.SetNodeEngine(nd, e)
		}
	}

	if cfg.Lazy != nil {
		if !cfg.Direct {
			return nil, fmt.Errorf("virtual: lazy host materialization requires direct mode")
		}
		if err := g.declare(cfg.Lazy); err != nil {
			return nil, err
		}
		return g, nil
	}

	if err := g.place(&cfg, physCfg); err != nil {
		return nil, err
	}
	return g, nil
}

// gridRate resolves the simulation rate: cfg.Rate, or when that is zero
// the fastest rate every physical machine sustains; 1 in direct mode.
func gridRate(cfg *Config, physCfg map[string]PhysConfig) (float64, error) {
	rate := cfg.Rate
	if rate == 0 {
		// The coherent rate is bounded by each physical machine's
		// capacity against the *sum* of the virtual CPUs mapped onto it
		// (several virtual hosts may share one machine).
		demand := map[string]float64{}
		for _, h := range cfg.Hosts {
			if _, ok := physCfg[h.MappedPhysical]; !ok {
				return 0, fmt.Errorf("virtual: host %s maps to unknown physical %q", h.Name, h.MappedPhysical)
			}
			demand[h.MappedPhysical] += h.CPUSpeedMIPS
		}
		var rr []vtime.ResourceRate
		for name, d := range demand {
			rr = append(rr, vtime.ResourceRate{
				Resource: name, Kind: "cpu",
				Physical: physCfg[name].CPUSpeedMIPS, Virtual: d,
			})
		}
		rate, _ = vtime.MaxFeasibleRate(rr)
		if rate > 1 {
			rate = 1
		}
	}
	if cfg.Direct {
		rate = 1
	}
	return rate, nil
}

// place builds an eager grid's hosts: every physical machine, on the
// engine of the virtual hosts mapped onto it, then every virtual host
// with its clock, scheduler task, memory limiter and — when emulated —
// its share of a fraction controller.
func (g *Grid) place(cfg *Config, physCfg map[string]PhysConfig) error {
	// Physical hosts are created on the engine of the virtual hosts
	// mapped onto them, so a host's CPU scheduler shares its shard.
	physEng := make(map[string]*simcore.Engine, len(cfg.Phys))
	for _, hc := range cfg.Hosts {
		nd := g.vnet.Node(hc.Name)
		if nd == nil {
			continue // the host loop below reports the missing node
		}
		he := nd.Engine()
		if prev, ok := physEng[hc.MappedPhysical]; ok && prev != he {
			return fmt.Errorf("virtual: physical host %s is shared by virtual hosts on different PDES shards", hc.MappedPhysical)
		}
		physEng[hc.MappedPhysical] = he
	}
	for _, pc := range cfg.Phys {
		pe := physEng[pc.Name]
		if pe == nil {
			pe = g.eng
		}
		g.phys[pc.Name] = cpusched.NewHost(pe, pc.Name, pc.CPUSpeedMIPS, pc.Quantum)
	}
	phys := g.phys

	for _, hc := range cfg.Hosts {
		if hc.CPUSpeedMIPS <= 0 {
			return fmt.Errorf("virtual: host %s needs positive CPU speed", hc.Name)
		}
		p, ok := phys[hc.MappedPhysical]
		if !ok {
			return fmt.Errorf("virtual: host %s maps to unknown physical %q", hc.Name, hc.MappedPhysical)
		}
		node := g.vnet.Node(hc.Name)
		if node == nil {
			return fmt.Errorf("virtual: topology has no node for host %s", hc.Name)
		}
		if node.Addr != hc.IP {
			return fmt.Errorf("virtual: node %s has address %v, config says %v", hc.Name, node.Addr, hc.IP)
		}
		mem := hc.MemoryBytes
		if mem == 0 {
			mem = 4 << 30
		}
		heng := node.Engine()
		h := &Host{
			grid:         g,
			eng:          heng,
			clock:        vtime.NewClock(heng, g.rate),
			Name:         hc.Name,
			IP:           hc.IP,
			CPUSpeedMIPS: hc.CPUSpeedMIPS,
			Node:         node,
			Mem:          memmodel.NewLimiter(mem),
			Phys:         p,
			cpu:          simcore.NewMutex(heng),
		}
		h.task = p.NewTask("vhost:" + hc.Name)
		if cfg.Direct {
			h.Fraction = 1
			if hc.CPUSpeedMIPS > p.SpeedMIPS()+1e-9 {
				return fmt.Errorf("virtual: direct mode: host %s (%.0f MIPS) exceeds physical %s (%.0f MIPS)",
					hc.Name, hc.CPUSpeedMIPS, p.Name, p.SpeedMIPS())
			}
		} else {
			h.Fraction = hc.CPUSpeedMIPS * g.rate / p.SpeedMIPS()
			if h.Fraction > 1+1e-9 {
				return fmt.Errorf("virtual: infeasible rate %.4g: host %s needs fraction %.3f of %s",
					g.rate, hc.Name, h.Fraction, p.Name)
			}
			job, err := g.controllerFor(p).AddJob(h.task, h.Fraction)
			if err != nil {
				return fmt.Errorf("virtual: mapping %s onto %s: %w", hc.Name, p.Name, err)
			}
			h.job = job
		}
		g.hosts[hc.Name] = h
		g.byIP[hc.IP] = h
	}
	return nil
}

// declare validates a lazy grid's declaration against the wired
// topology, in the order the eager loop checks a host list, so a later
// Host() touch cannot fail; it records which host nodes are declared.
// Runtime state waits for that touch.
func (g *Grid) declare(lh *LazyHosts) error {
	g.lazy = lh
	first := ""
	if lh.Names != nil {
		if len(lh.Names) > 0 {
			first = lh.Names[0]
		}
	} else {
		for i := 0; i < g.vnet.NodeCount(); i++ {
			if nd := g.vnet.NodeAt(i); !nd.Router {
				if g.ndeclared == 0 {
					first = nd.Name
				}
				g.ndeclared++
			}
		}
	}
	if first == "" {
		return fmt.Errorf("virtual: no hosts configured")
	}
	if lh.CPUSpeedMIPS <= 0 {
		return fmt.Errorf("virtual: host %s needs positive CPU speed", first)
	}
	if lh.Names == nil {
		return nil
	}
	g.declared = make([]uint64, (g.vnet.NodeCount()+63)/64)
	for _, name := range lh.Names {
		node := g.vnet.Node(name)
		if node == nil || node.Router {
			return fmt.Errorf("virtual: topology has no node for host %s", name)
		}
		if i := node.Index(); g.declared[i/64]&(1<<(i%64)) == 0 {
			g.declared[i/64] |= 1 << (i % 64)
			g.ndeclared++
		}
	}
	return nil
}

// isDeclared reports whether nd is a declared host of a lazy grid,
// materialized or not.
func (g *Grid) isDeclared(nd *netsim.Node) bool {
	if g.lazy == nil || nd == nil || nd.Router {
		return false
	}
	if g.declared == nil {
		return true
	}
	i := nd.Index()
	return g.declared[i/64]&(1<<(i%64)) != 0
}

// ScaleLink converts a link specified in virtual units to engine (physical)
// units: delays stretch by 1/rate, bandwidths shrink by rate (none of
// this in direct mode). On a FlowNetwork grid the link also runs at flow
// fidelity; every link of the virtual network passes through here.
func (g *Grid) ScaleLink(cfg netsim.LinkConfig) netsim.LinkConfig {
	if g.flow {
		cfg.Fidelity = netsim.FidelityFlow
	}
	if g.rate == 1 {
		return cfg
	}
	cfg.BandwidthBps *= g.rate
	cfg.Delay = simcore.Duration(float64(cfg.Delay) / g.rate)
	return cfg
}

// Engine returns the PDES shard this host runs on.
func (h *Host) Engine() *simcore.Engine { return h.eng }

// Clock returns the grid's virtual clock.
func (g *Grid) Clock() *vtime.Clock { return g.clock }

// Rate returns the simulation rate.
func (g *Grid) Rate() float64 { return g.rate }

// Network returns the (scaled) virtual network simulator.
func (g *Grid) Network() *netsim.Network { return g.vnet }

// Host returns the named virtual host, or nil. On a lazy grid the
// first touch materializes the host's runtime state (validated at
// build time, so materialization cannot fail).
func (g *Grid) Host(name string) *Host {
	if h, ok := g.hosts[name]; ok {
		return h
	}
	if g.lazy != nil {
		if nd := g.vnet.Node(name); g.isDeclared(nd) {
			return g.materialize(nd)
		}
	}
	return nil
}

// Materialized returns the named host only if its runtime state already
// exists — it never triggers materialization. On an eager grid every
// declared host is materialized, so this equals Host.
func (g *Grid) Materialized(name string) *Host { return g.hosts[name] }

// MaterializedCount reports how many declared hosts have runtime state.
func (g *Grid) MaterializedCount() int { return len(g.hosts) }

// DeclaredHosts reports the total declared host count, materialized or
// not.
func (g *Grid) DeclaredHosts() int {
	if g.lazy != nil {
		return g.ndeclared
	}
	return len(g.hosts)
}

// materialize builds the runtime state of one declared host from its
// node and the grid's template: its physical CPU phys-<name> (created on
// the host's shard), clock, CPU scheduler task, and memory limiter — the
// body of NewGrid's eager loop, deferred to first touch. Only lazy
// (hence direct-mode) grids reach here, so there is no fraction
// controller to register with.
func (g *Grid) materialize(node *netsim.Node) *Host {
	heng := node.Engine()
	p := cpusched.NewHost(heng, "phys-"+node.Name, g.lazy.CPUSpeedMIPS, 0)
	g.phys[p.Name] = p
	mem := g.lazy.MemoryBytes
	if mem == 0 {
		mem = 4 << 30
	}
	h := &Host{
		grid:         g,
		eng:          heng,
		clock:        vtime.NewClock(heng, g.rate),
		Name:         node.Name,
		IP:           node.Addr,
		CPUSpeedMIPS: g.lazy.CPUSpeedMIPS,
		Node:         node,
		Mem:          memmodel.NewLimiter(mem),
		Phys:         p,
		Fraction:     1,
		cpu:          simcore.NewMutex(heng),
	}
	h.task = p.NewTask("vhost:" + node.Name)
	g.hosts[node.Name] = h
	g.byIP[node.Addr] = h
	return h
}

// Phys returns the named physical host, or nil.
func (g *Grid) PhysHost(name string) *cpusched.Host { return g.phys[name] }

// Resolve is the gethostbyname analog: virtual host name → virtual IP.
// Resolving a lazy host's name answers from its declaration without
// materializing it.
func (g *Grid) Resolve(name string) (netsim.Addr, error) {
	if h, ok := g.hosts[name]; ok {
		return h.IP, nil
	}
	if nd := g.vnet.Node(name); g.isDeclared(nd) {
		return nd.Addr, nil
	}
	if a, err := netsim.ParseAddr(name); err == nil {
		if _, ok := g.byIP[a]; ok {
			return a, nil
		}
		if g.isDeclared(g.vnet.NodeByAddr(a)) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("virtual: unknown host %q", name)
}

// controllerFor returns — creating and spawning on demand — the MicroGrid
// scheduler daemon of a physical host. The daemon cycles on a fixed wall
// schedule even while its jobs are idle, exactly like the real scheduler:
// phase alignment across hosts is what makes virtual time advance
// coherently. Call StopControllers when the workload completes so the
// simulation can drain.
func (g *Grid) controllerFor(p *cpusched.Host) *cpusched.MultiController {
	if mc, ok := g.controllers[p.Name]; ok {
		return mc
	}
	mc := cpusched.NewMultiController(p)
	if g.stagger > 0 {
		// Offset daemons across machines with a low-discrepancy sequence,
		// spread over up to two quanta per unit of stagger (the typical
		// on/off cycle scale).
		frac := float64(len(g.controllers)) * 0.6180339887
		frac -= float64(int(frac))
		mc.StartDelay = simcore.Duration(g.stagger * frac * 2 * float64(mc.Quantum))
	}
	g.controllers[p.Name] = mc
	mc.Spawn()
	return mc
}

// StopControllers terminates every physical host's scheduler daemon.
// Call it when the workload has completed: the daemons cycle forever
// otherwise (by design — their fixed schedule is what keeps hosts
// phase-aligned), which would keep the simulation from draining.
func (g *Grid) StopControllers() {
	for _, mc := range g.controllers {
		mc.Terminate()
	}
}
