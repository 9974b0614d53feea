// Package core assembles the MicroGrid from its components — virtual
// hosts, the fraction schedulers, the network simulator, virtual time, the
// GIS and the Globus stack — and implements the paper's experiments: one
// runner per table and figure of the evaluation (SC2000, §3).
package core

import (
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

// AlphaCluster is the paper's experimental platform: 4× 533 MHz DEC 21164
// Alphas with 1 GB memory each on 100 Mb Ethernet (§3.1, Fig. 9).
var AlphaCluster = scenario.Machine{
	Name:            "Alpha Cluster",
	Procs:           4,
	ProcType:        "DEC21164, 533 MHz",
	CPUMIPS:         533,
	MemoryBytes:     1 << 30,
	NetName:         "100Mb Ethernet",
	NetBandwidthBps: 100e6,
	NetPerSideDelay: 25 * simcore.Microsecond,
	Compiler:        "GNU Fortran",
}

// HPVM is the second Fig. 9 configuration: 4× 300 MHz Pentium II on
// 1.2 Gb Myrinet.
var HPVM = scenario.Machine{
	Name:            "HPVM",
	Procs:           4,
	ProcType:        "PentiumII, 300 MHz",
	CPUMIPS:         300,
	MemoryBytes:     512 << 20,
	NetName:         "1.2Gb Myrinet",
	NetBandwidthBps: 1.2e9,
	NetPerSideDelay: 5 * simcore.Microsecond,
	Compiler:        "Digital Fortran V5.0",
}

// machinePtr returns a pointer to a copy of m, for a scenario's Target
// or Emulation: the shared AlphaCluster and HPVM values stay untouched.
func machinePtr(m scenario.Machine) *scenario.Machine { return &m }
