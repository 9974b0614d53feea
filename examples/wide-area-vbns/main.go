// Wide-area Grid study: NPB over the paper's fictional vBNS testbed
// (Figures 13–14). Four processes — two at UCSD, two at UIUC — run across
// a wide-area path traversing campus LANs, OC3 access circuits, and a
// varied backbone link, showing that Grid applications must be latency
// tolerant: bandwidth barely matters for all but EP.
//
//	go run ./examples/wide-area-vbns
//	go run ./examples/wide-area-vbns -bench LU
package main

import (
	"flag"
	"fmt"
	"log"

	"microgrid"
)

func main() {
	bench := flag.String("bench", "MG", "NPB kernel: EP, BT, LU, MG, IS")
	flag.Parse()

	fmt.Printf("NPB %s class S: 2 processes at UCSD + 2 at UIUC over the vBNS\n\n", *bench)
	fmt.Printf("%-14s %12s\n", "WAN link", "time (s)")
	alpha := microgrid.AlphaCluster
	for _, wan := range []struct {
		name string
		bps  float64
	}{
		{"OC12 622Mb/s", microgrid.OC12Bps},
		{"OC3  155Mb/s", microgrid.OC3Bps},
		{"10Mb/s", 10e6},
	} {
		spec, err := microgrid.VBNSSpec(2, wan.bps)
		if err != nil {
			log.Fatal(err)
		}
		// The scenario pins ranks to sites: two processes at UCSD, two
		// at UIUC, per-host specs from the Alpha-cluster target.
		report, err := microgrid.RunScenario(&microgrid.Scenario{
			Name:      "wide-area-vbns",
			Seed:      7,
			Target:    &alpha,
			Topology:  spec,
			HostRanks: []string{"ucsd0", "ucsd1", "uiuc0", "uiuc1"},
			Workload: &microgrid.ScenarioWorkload{
				Kind: "npb", Bench: *bench, Class: byte(microgrid.NPBClassS),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.3f\n", wan.name, report.VirtualElapsed.Seconds())
	}
	fmt.Println("\nAs in the paper: latency effects dominate — performance is only")
	fmt.Println("mildly sensitive to WAN bandwidth (EP excepted).")
}
