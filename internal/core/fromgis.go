package core

import (
	"fmt"
	"sort"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
	"microgrid/internal/virtual"
)

// buildFromGIS is the GIS front end to assemble — the paper's workflow:
// "our MicroGrid system reads desired network configuration files and
// inputs a network configuration for NSE according to the virtual
// network information in the GIS" (§2.4.2). The configuration's host
// records supply the names, virtual IPs, CPU speeds, memory and
// physical mapping, and its LAN record the bandwidth and per-side
// latency, that Build derives from cfg.Target and cfg.Emulation; cfg
// supplies every other knob. physMIPS calibrates the mapped physical
// machines; nil means direct mode. The build is never lazy: RunApp
// expects every record's host registered.
func buildFromGIS(server *gis.Server, configName string, physMIPS map[string]float64, cfg BuildConfig) (*MicroGrid, error) {
	hosts, nets, err := gis.VirtualResources(server, configName)
	if err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: configuration %q has no virtual hosts in the GIS", configName)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Hostname < hosts[j].Hostname })
	cfg.Target.Procs = len(hosts)

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

	vcfg := gridConfig(cfg)
	var hostNames []string
	ipOwner := make(map[netsim.Addr]string, len(hosts))
	for i, h := range hosts {
		if h.Hostname == virtual.LANSwitch {
			return nil, fmt.Errorf("core: host record %s: the name is reserved for the grid's LAN switch", h.Hostname)
		}
		if i > 0 && hosts[i-1].Hostname == h.Hostname {
			return nil, fmt.Errorf("core: two host records are named %s", h.Hostname)
		}
		if h.VirtualIP == "" {
			return nil, fmt.Errorf("core: host record %s has no Virtual_IP", h.Hostname)
		}
		ip, err := netsim.ParseAddr(h.VirtualIP)
		if err != nil {
			return nil, fmt.Errorf("core: host %s: %v", h.Hostname, err)
		}
		if other, dup := ipOwner[ip]; dup {
			return nil, fmt.Errorf("core: hosts %s and %s share Virtual_IP %s", other, h.Hostname, h.VirtualIP)
		}
		ipOwner[ip] = h.Hostname
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

	if physMIPS == nil {
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
			mips, ok := physMIPS[h.MappedPhysical]
			if !ok {
				return nil, fmt.Errorf("core: no PhysMIPS calibration for %q (host %s)", h.MappedPhysical, h.Name)
			}
			if !seen[h.MappedPhysical] {
				seen[h.MappedPhysical] = true
				vcfg.Phys = append(vcfg.Phys, virtual.PhysConfig{
					Name:         h.MappedPhysical,
					CPUSpeedMIPS: mips,
					Quantum:      cfg.Quantum,
				})
			}
		}
	}
	return assemble(cfg, vcfg, virtual.LANWire(vcfg.Hosts, bw, perSide), server, hostNames, configName)
}
