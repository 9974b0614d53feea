package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// defaultSeed is the workload seed when none is given.
const defaultSeed = 1

// alphaCluster is the paper's Alpha cluster machine line (Fig. 9), shared
// by the target and emulate lines of the cluster workloads.
const alphaCluster = `cpu=533 mem=1GBytes net=100Mbps delay=25us name="Alpha Cluster" proctype="DEC21164, 533 MHz" nettype="100Mb Ethernet" compiler="GNU Fortran"`

// workload is one named benchmark input: scenario text with a {{seed}}
// placeholder, the gate its runs must pass, and the committed digests
// of its report (and canonical trace).
type workload struct {
	name string
	// text is the full-size scenario; tiny the smoke-test variant with
	// the same shape at the smallest class or host count.
	text, tiny string
	// report and trace are the SHA-256 of core.FormatScenarioReport and
	// of the canonical trace JSONL (trace empty for untraced workloads).
	// None of the four reports depends on the scenario's seed line, so
	// every full-size run at any seed must match them.
	report, trace string
	// check is the structural gate every run must pass, at any size.
	check func(r *childResult, tiny bool) error
	// serialTwin, when set, marks a partitioned workload whose report
	// must equal the same scenario's report on the serial engine.
	serialTwin bool
}

// scenarioText instantiates the workload for seed. The program only
// ever sees this text: the seed reaches it through the seed line.
func (w *workload) scenarioText(seed int64, tiny bool) string {
	t := w.text
	if tiny {
		t = w.tiny
	}
	return strings.ReplaceAll(t, "{{seed}}", fmt.Sprint(seed))
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

const npbBTA = `scenario npb-bt-a
describe Fig. 10 headline arm: NPB BT class A on the Alpha cluster, emulated at rate 0.5
seed {{seed}}
target procs=4 ` + alphaCluster + `
emulate procs=4 ` + alphaCluster + `
rate 0.5
workload npb bench=BT class={{class}}
`

const vbnsLU = `scenario vbns-lu-2shard
describe Fig. 14 shape partitioned: NPB LU class W over vBNS, 4 hosts per site, 2 shards
seed {{seed}}
target procs=4 ` + alphaCluster + `
engine parallel shards=2
partition auto
topology
  topology vbns
  host ucsd0 1.11.11.1
  host ucsd1 1.11.11.2
  host ucsd2 1.11.11.3
  host ucsd3 1.11.11.4
  host uiuc0 1.22.22.1
  host uiuc1 1.22.22.2
  host uiuc2 1.22.22.3
  host uiuc3 1.22.22.4
  router ucsd-switch
  router ucsd-gw
  router uiuc-switch
  router uiuc-gw
  router vbns-west
  router vbns-east
  link ucsd0 ucsd-switch 100Mbps 25us
  link ucsd1 ucsd-switch 100Mbps 25us
  link ucsd2 ucsd-switch 100Mbps 25us
  link ucsd3 ucsd-switch 100Mbps 25us
  link ucsd-switch ucsd-gw 100Mbps 100us
  link uiuc0 uiuc-switch 100Mbps 25us
  link uiuc1 uiuc-switch 100Mbps 25us
  link uiuc2 uiuc-switch 100Mbps 25us
  link uiuc3 uiuc-switch 100Mbps 25us
  link uiuc-switch uiuc-gw 100Mbps 100us
  link ucsd-gw vbns-west 155Mbps 1ms
  link uiuc-gw vbns-east 155Mbps 1ms
  link vbns-west vbns-east 622Mbps 28ms queue=512KBytes
end
ranks ucsd0 ucsd1 ucsd2 ucsd3 uiuc0 uiuc1 uiuc2 uiuc3
workload npb bench=LU class={{class}} ranks=8
`

const scale100k = `scenario scale-100k-wan
describe NPB MG on 16 ranks spanning two campuses of a 100000-host star, across the flow-fidelity WAN
seed {{seed}}
target procs=16 cpu=500
topology generate kind=star hosts={{hosts}} seed=7 clusters={{clusters}} wan-fidelity=flow
workload npb bench=MG class=S ranks=16
`

const crashFailover = `scenario crash-failover-traced
describe chaos-crash shape, traced: NPB BT class A on 4 of 5 Alpha hosts, vm1 crashes, the job fails over
seed {{seed}}
target procs=5 ` + alphaCluster + `
workload npb bench=BT class={{class}} ranks=4
retry timeout={{timeout}} attempts=3 backoff=100ms
trace categories=all
chaos
  schedule crash-vm1
  at {{crash}} crash vm1
end
`

// fill substitutes the size placeholders of a template.
func fill(t string, kv ...string) string {
	for i := 0; i+1 < len(kv); i += 2 {
		t = strings.ReplaceAll(t, "{{"+kv[i]+"}}", kv[i+1])
	}
	return t
}

func attemptsGate(want int) func(*childResult, bool) error {
	return func(r *childResult, _ bool) error {
		if r.Attempts != want {
			return fmt.Errorf("attempts %d, want %d", r.Attempts, want)
		}
		return nil
	}
}

var workloads = []*workload{
	{
		name:   "npb-bt-a",
		text:   fill(npbBTA, "class", "A"),
		tiny:   fill(npbBTA, "class", "S"),
		report: "478397e575ff7954531a5e3b5e21df09258c7b363ec0d877aa3988bacde553fe",
		check:  attemptsGate(1),
	},
	{
		name:       "vbns-lu-2shard",
		text:       fill(vbnsLU, "class", "W"),
		tiny:       fill(vbnsLU, "class", "S"),
		report:     "fe9cff26ca32cc6b9799a730c74891a1938d8bd5465aef965d838decfc3aa877",
		check:      attemptsGate(1),
		serialTwin: true,
	},
	{
		name:   "scale-100k-wan",
		text:   fill(scale100k, "hosts", "100000", "clusters", "12500"),
		tiny:   fill(scale100k, "hosts", "8000", "clusters", "1000"),
		report: "d8fa1c26cfa7aa427dff6c10c88d2af87cee55e2d15f5788f1edcc2d5cba1f89",
		check: func(r *childResult, tiny bool) error {
			want := 100000
			if tiny {
				want = 8000
			}
			if r.HostsDeclared != want || r.HostsLive != 16 {
				return fmt.Errorf("hosts declared %d live %d, want %d and 16", r.HostsDeclared, r.HostsLive, want)
			}
			return attemptsGate(1)(r, tiny)
		},
	},
	{
		name:   "crash-failover-traced",
		text:   fill(crashFailover, "class", "A", "timeout", "10m", "crash", "60s"),
		tiny:   fill(crashFailover, "class", "S", "timeout", "10s", "crash", "230ms"),
		report: "7bc46e7045ae534cef1863b4247f2dd09ad6817fd9ca401ec373f571857f9bfc",
		trace:  "17c9f1e6b137285337e899ad00a9f2820011f3ca1e7055537622b7020070d181",
		check:  attemptsGate(2),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
