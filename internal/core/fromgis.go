package core

import (
	"fmt"
	"sort"

	"microgrid/internal/gis"
	"microgrid/internal/globus"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

// GISBuildOptions tune BuildFromGIS.
type GISBuildOptions struct {
	// Seed drives the deterministic simulation.
	Seed int64
	// PhysMIPS calibrates the physical machines named by the records'
	// Mapped_Physical_Resource attributes. Nil means direct mode: every
	// virtual host gets a dedicated physical machine at its own speed
	// (the reference model).
	PhysMIPS map[string]float64
	// Rate is the simulation rate (0 = fastest feasible).
	Rate float64
	// Quantum is the scheduler quantum on the emulation hosts.
	Quantum simcore.Duration
	// StaggerSpread de-synchronizes the scheduler daemons (see BuildConfig).
	StaggerSpread float64
	// Shards selects the simulation engine, as in BuildConfig.Shards.
	Shards int
	// Partition places topology clusters on shards, as in
	// BuildConfig.Partition (requires direct mode, i.e. nil PhysMIPS).
	Partition *PartitionConfig
}

// BuildFromGIS constructs a MicroGrid from the virtual-resource records of
// one configuration in a GIS directory — the paper's workflow: "our
// MicroGrid system reads desired network configuration files and inputs a
// network configuration for NSE according to the virtual network
// information in the GIS" (§2.4.2). Host records supply names, virtual
// IPs, CPU speeds, memory and physical mappings; the configuration's LAN
// record supplies bandwidth and per-side latency.
func BuildFromGIS(server *gis.Server, configName string, opts GISBuildOptions) (*MicroGrid, error) {
	hosts, nets, err := gis.VirtualResources(server, configName)
	if err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: configuration %q has no virtual hosts in the GIS", configName)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Hostname < hosts[j].Hostname })

	// Network: use the configuration's LAN record (default to the Alpha
	// cluster's Ethernet if none present).
	bw, perSide := AlphaCluster.NetBandwidthBps, AlphaCluster.NetPerSideDelay
	for _, n := range nets {
		if n.BandwidthBps > 0 {
			bw = n.BandwidthBps
			perSide = n.Delay
			break
		}
	}

	vcfg := virtual.Config{
		Rate:          opts.Rate,
		StaggerSpread: opts.StaggerSpread,
	}
	var hostNames []string
	for _, h := range hosts {
		if h.VirtualIP == "" {
			return nil, fmt.Errorf("core: host record %s has no Virtual_IP", h.Hostname)
		}
		ip, err := netsim.ParseAddr(h.VirtualIP)
		if err != nil {
			return nil, fmt.Errorf("core: host %s: %v", h.Hostname, err)
		}
		if h.CPUSpeedMIPS <= 0 {
			return nil, fmt.Errorf("core: host record %s has no CpuSpeed", h.Hostname)
		}
		hostNames = append(hostNames, h.Hostname)
		vcfg.Hosts = append(vcfg.Hosts, virtual.HostConfig{
			Name:           h.Hostname,
			IP:             ip,
			CPUSpeedMIPS:   h.CPUSpeedMIPS,
			MemoryBytes:    h.MemoryBytes,
			MappedPhysical: h.MappedPhysical,
		})
	}

	if opts.PhysMIPS == nil {
		// Direct mode: dedicated physical machine per virtual host.
		vcfg.Direct = true
		for i := range vcfg.Hosts {
			pname := "phys-" + vcfg.Hosts[i].Name
			vcfg.Hosts[i].MappedPhysical = pname
			vcfg.Phys = append(vcfg.Phys, virtual.PhysConfig{
				Name:         pname,
				CPUSpeedMIPS: vcfg.Hosts[i].CPUSpeedMIPS,
			})
		}
	} else {
		seen := map[string]bool{}
		for _, h := range vcfg.Hosts {
			if h.MappedPhysical == "" {
				return nil, fmt.Errorf("core: host record %s has no Mapped_Physical_Resource", h.Name)
			}
			mips, ok := opts.PhysMIPS[h.MappedPhysical]
			if !ok {
				return nil, fmt.Errorf("core: no PhysMIPS calibration for %q (host %s)", h.MappedPhysical, h.Name)
			}
			if !seen[h.MappedPhysical] {
				seen[h.MappedPhysical] = true
				vcfg.Phys = append(vcfg.Phys, virtual.PhysConfig{
					Name:         h.MappedPhysical,
					CPUSpeedMIPS: mips,
					Quantum:      opts.Quantum,
				})
			}
		}
	}

	partition := resolvePartition(opts.Partition)
	if partition != nil && opts.PhysMIPS != nil {
		return nil, fmt.Errorf("core: partitioning requires direct mode (no emulation platform)")
	}
	eng, driver, par := newDriver(opts.Seed, resolveShards(opts.Shards))
	var planOf func() (*partitionPlan, error)
	if par != nil && partition != nil {
		vcfg.AssignEngines, planOf = partitionAssign(par, partition)
	}
	grid, err := virtual.NewGrid(eng, vcfg, virtual.LANWire(vcfg.Hosts, bw, perSide))
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
		if plan != nil {
			par.SetLookahead(plan.lookahead)
		} else if d, ok := grid.Network().MinLinkDelay(); ok {
			par.SetLookahead(d)
		}
	}
	m := &MicroGrid{
		Eng:         eng,
		driver:      driver,
		par:         par,
		plan:        plan,
		Grid:        grid,
		GIS:         server,
		Registry:    globus.NewRegistry(),
		Hosts:       hostNames,
		ConfigName:  configName,
		gatekeepers: make(map[string]*globus.Gatekeeper),
		cfg: BuildConfig{
			Seed:      opts.Seed,
			Rate:      opts.Rate,
			Quantum:   opts.Quantum,
			Shards:    opts.Shards,
			Partition: opts.Partition,
			Emulation: emulationMarker(opts.PhysMIPS != nil),
		},
	}
	m.wireGISHome()
	for _, name := range hostNames {
		gk, err := globus.StartGatekeeper(grid.Host(name), 0, m.Registry)
		if err != nil {
			return nil, err
		}
		gk.RegisterInGIS(server, OrgUnit, configName, grid.Host(name).Phys.Name)
		m.gatekeepers[name] = gk
	}
	return m, nil
}

// emulationMarker yields a non-nil placeholder so IsDirect reports
// correctly for GIS-built grids.
func emulationMarker(emulated bool) *MachineConfig {
	if !emulated {
		return nil
	}
	m := MachineConfig{Name: "gis-emulation"}
	return &m
}
