package virtual

import (
	"fmt"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// LANSwitch names the router LANWire adds; no host may take the name.
const LANSwitch = "lan-switch"

// LANWire returns a wire function building a switched LAN joining all
// configured hosts: one star link per host at bwBps with perSide
// propagation delay (the Alpha-cluster 100 Mb Ethernet shape). Link
// parameters are in virtual units; scaling is applied by the grid.
func LANWire(hosts []HostConfig, bwBps float64, perSide simcore.Duration) func(*netsim.Network, func(netsim.LinkConfig) netsim.LinkConfig) error {
	return func(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error {
		if bwBps <= 0 {
			return fmt.Errorf("virtual: LAN needs positive bandwidth")
		}
		sw := nw.AddRouter(LANSwitch)
		cfg := scale(netsim.LinkConfig{BandwidthBps: bwBps, Delay: perSide})
		for _, h := range hosts {
			node := nw.AddHost(h.Name, h.IP)
			nw.Connect(node, sw, cfg)
		}
		return nil
	}
}

// NewLANGrid is a convenience constructor: n virtual hosts named
// <prefix>0..n-1 with addresses base+i on a switched LAN, each mapped to
// its own physical machine. Virtual CPU speed vMIPS, physical speed
// pMIPS; identical host counts. Used by tests, examples and the NPB
// experiment harness.
func NewLANGrid(eng *simcore.Engine, prefix string, n int, vMIPS, pMIPS float64, bwBps float64, perSide simcore.Duration, rate float64, direct bool, quantum simcore.Duration) (*Grid, error) {
	base := netsim.MustParseAddr("1.11.11.1")
	cfg := Config{Rate: rate, Direct: direct}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		cfg.Hosts = append(cfg.Hosts, HostConfig{
			Name:           name,
			IP:             base + netsim.Addr(i),
			CPUSpeedMIPS:   vMIPS,
			MappedPhysical: "phys-" + name,
		})
		cfg.Phys = append(cfg.Phys, PhysConfig{
			Name:         "phys-" + name,
			CPUSpeedMIPS: pMIPS,
			Quantum:      quantum,
		})
	}
	return NewGrid(eng, cfg, LANWire(cfg.Hosts, bwBps, perSide))
}
