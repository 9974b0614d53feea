// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, regenerating the same rows/series at paper scale, plus
// ablation benches for design choices called out in DESIGN.md.
//
// Run everything (slow — the class-A figures take tens of seconds each):
//
//	go test -bench=. -benchmem
//
// Or a single figure:
//
//	go test -bench=BenchmarkFig10 -benchtime=1x
//
// Each bench prints its regenerated table once and reports the figure's
// key error metrics via b.ReportMetric.
package microgrid

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"microgrid/internal/core"
	"microgrid/internal/cpusched"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// printOnce guards table printing so -benchtime iterations don't spam.
var printOnce sync.Map

func runExperiment(b *testing.B, id string, metricsOut map[string]string) {
	b.Helper()
	fn, err := core.GetExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	var exp *core.Experiment
	for i := 0; i < b.N; i++ {
		exp, err = fn(&core.ExperimentRun{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, dup := printOnce.LoadOrStore(id, true); !dup {
		b.Logf("\n%s", exp.Table.String())
		for _, n := range exp.Notes {
			b.Logf("note: %s", n)
		}
	}
	for metric, unit := range metricsOut {
		if v, ok := exp.Metrics[metric]; ok {
			b.ReportMetric(v, unit)
		}
	}
}

// BenchmarkFig05MemoryLimit — memory capacity enforcement (Fig. 5).
func BenchmarkFig05MemoryLimit(b *testing.B) {
	runExperiment(b, "fig05", map[string]string{"overhead_bytes": "overhead_B", "slope": "slope"})
}

// BenchmarkFig06CPUFraction — delivered vs specified CPU fraction under
// competition (Fig. 6).
func BenchmarkFig06CPUFraction(b *testing.B) {
	runExperiment(b, "fig06", map[string]string{
		"spec50_none": "none@50_%", "spec90_cpu": "cpu@90_%",
	})
}

// BenchmarkFig07QuantaDistribution — quanta-size stability (Fig. 7).
func BenchmarkFig07QuantaDistribution(b *testing.B) {
	runExperiment(b, "fig07", map[string]string{
		"dev_none": "dev_none", "dev_cpu": "dev_cpu", "dev_io": "dev_io",
	})
}

// BenchmarkFig08NetworkModel — NSE latency/bandwidth modeling (Fig. 8).
func BenchmarkFig08NetworkModel(b *testing.B) {
	runExperiment(b, "fig08", map[string]string{
		"worst_latency_err_pct": "lat_err_%", "worst_bandwidth_err_pct": "bw_err_%",
	})
}

// BenchmarkFig09Configurations — the configurations table (Fig. 9).
func BenchmarkFig09Configurations(b *testing.B) {
	runExperiment(b, "fig09", nil)
}

// BenchmarkFig10NPBClassA — NPB class A totals, physical vs MicroGrid on
// both configurations (Fig. 10). The headline validation.
func BenchmarkFig10NPBClassA(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{"worst_err_pct": "worst_err_%"})
}

// BenchmarkFig11QuantumSweep — scheduling-quantum ablation on class S
// (Fig. 11); this is also DESIGN.md's quantum ablation.
func BenchmarkFig11QuantumSweep(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"MG_err_pct_2.5ms": "MG@2.5ms_err_%", "MG_err_pct_30ms": "MG@30ms_err_%",
	})
}

// BenchmarkFig12CPUScaling — CPU-scaling extrapolation at fixed slow
// network (Fig. 12).
func BenchmarkFig12CPUScaling(b *testing.B) {
	runExperiment(b, "fig12", map[string]string{
		"EP_norm_8x": "EP_norm_8x", "MG_norm_8x": "MG_norm_8x",
	})
}

// BenchmarkFig14VBNSDegrade — NPB over the vBNS testbed with WAN
// bandwidth sweep (Figs. 13–14).
func BenchmarkFig14VBNSDegrade(b *testing.B) {
	runExperiment(b, "fig14", map[string]string{
		"EP_622M_s": "EP@622M_s", "EP_10M_s": "EP@10M_s",
	})
}

// BenchmarkFig15EmulationRates — rate-invariance of virtual-time results
// (Fig. 15).
func BenchmarkFig15EmulationRates(b *testing.B) {
	runExperiment(b, "fig15", map[string]string{
		"EP_norm_8x": "EP_norm_8x", "MG_norm_8x": "MG_norm_8x",
	})
}

// BenchmarkFig16Cactus — CACTUS WaveToy full-application validation
// (Fig. 16).
func BenchmarkFig16Cactus(b *testing.B) {
	runExperiment(b, "fig16", map[string]string{"worst_err_pct": "worst_err_%"})
}

// BenchmarkFig17Autopilot — internal validation by Autopilot traces at
// simulation rate 0.04 (Fig. 17). The slowest figure: class A emulated at
// 4% CPU.
func BenchmarkFig17Autopilot(b *testing.B) {
	runExperiment(b, "fig17", map[string]string{
		"EP_skew_pct": "EP_skew_%", "BT_skew_pct": "BT_skew_%", "MG_skew_pct": "MG_skew_%",
	})
}

// BenchmarkAblationSendOverhead — DESIGN.md ablation: the per-message CPU
// overhead model's effect on small-message latency.
func BenchmarkAblationSendOverhead(b *testing.B) {
	for _, overhead := range []float64{1, 8000, 80000} {
		overhead := overhead
		b.Run(fmt.Sprintf("ops=%g", overhead), func(b *testing.B) {
			var lat simcore.Duration
			for i := 0; i < b.N; i++ {
				m, err := core.Build(core.BuildConfig{
					Seed:            1,
					Target:          core.AlphaCluster.WithProcs(2),
					SendOverheadOps: overhead,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat, err = core.PingPongOneWay(m, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(lat)/1000, "oneway_us")
		})
	}
}

// BenchmarkAblationChargePolicy — DESIGN.md ablation: the paper's
// wall-time charging (Fig. 4) vs actual-CPU charging under a CPU hog.
func BenchmarkAblationChargePolicy(b *testing.B) {
	for _, chargeCPU := range []bool{false, true} {
		chargeCPU := chargeCPU
		name := "wall-time"
		if chargeCPU {
			name = "actual-cpu"
		}
		b.Run(name, func(b *testing.B) {
			var delivered float64
			for i := 0; i < b.N; i++ {
				eng := simcore.NewEngine(3)
				h := cpusched.NewHost(eng, "h", 533, 0)
				h.StartCompetitor("hog")
				job := h.NewTask("job")
				mc := cpusched.NewMultiController(h)
				mc.ChargeActualCPU = chargeCPU
				if _, err := mc.AddJob(job, 0.45); err != nil {
					b.Fatal(err)
				}
				mc.Spawn()
				jp := eng.Spawn("job", func(p *simcore.Proc) {
					for {
						job.ComputeSeconds(p, 1)
					}
				})
				jp.SetDaemon(true)
				eng.Spawn("end", func(p *simcore.Proc) {
					p.Sleep(30 * simcore.Second)
					eng.Stop()
				})
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				delivered = job.UsedCPU().Seconds() / 30
			}
			b.ReportMetric(100*delivered, "delivered_%")
		})
	}
}

// runNPB builds cfg's grid and runs one NPB kernel on it, as
// RunScenario does, returning the modeled time.
func runNPB(b *testing.B, cfg core.BuildConfig, bench string, class byte) simcore.Duration {
	m, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := m.RunWorkload(&scenario.Scenario{
		Name:     "ablation",
		Workload: &scenario.Workload{Kind: "npb", Bench: bench, Class: class},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r.VirtualElapsed
}

// BenchmarkAblationPhaseAlignment — DESIGN.md ablation: scheduler-daemon
// phase alignment across machines. Aligned daemons (spread 0) give the
// tight class-A matches of Fig. 10; staggered daemons reproduce Fig. 11's
// quantum-dependent error. Measured on MG class S, quantum 10 ms.
func BenchmarkAblationPhaseAlignment(b *testing.B) {
	hw := core.AlphaCluster
	for _, spread := range []float64{0, 0.25, 1.0} {
		spread := spread
		b.Run(fmt.Sprintf("spread=%g", spread), func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				phys := runNPB(b, core.BuildConfig{
					Seed: 21, Target: core.AlphaCluster,
				}, "MG", 'S')
				emu := runNPB(b, core.BuildConfig{
					Seed: 21, Target: core.AlphaCluster,
					Emulation: &hw, Rate: 0.5,
					StaggerSpread: spread,
				}, "MG", 'S')
				errPct = 100 * math.Abs(emu.Seconds()-phys.Seconds()) / phys.Seconds()
			}
			b.ReportMetric(errPct, "err_%")
		})
	}
}

// BenchmarkAblationNetworkFidelity — the speed-vs-fidelity axis: IS class
// S (the most network-intensive kernel) under packet-level vs analytic
// flow-level network modeling. Reports the modeled time and, implicitly
// via ns/op, the simulation speedup flow mode buys.
func BenchmarkAblationNetworkFidelity(b *testing.B) {
	for _, flow := range []bool{false, true} {
		flow := flow
		name := "packet-level"
		if flow {
			name = "flow-level"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed simcore.Duration
			for i := 0; i < b.N; i++ {
				elapsed = runNPB(b, core.BuildConfig{
					Seed: 22, Target: core.AlphaCluster, FlowNetwork: flow,
				}, "IS", 'S')
			}
			b.ReportMetric(elapsed.Seconds(), "modeled_s")
		})
	}
}

// BenchmarkExtraCrossTraffic goes beyond the paper's figures: NPB MG over
// the vBNS testbed while CBR background traffic consumes 0 / 50 / 90% of
// the 10 Mb/s WAN bottleneck — the competing-load dimension the paper
// contrasts with the Bricks project.
func BenchmarkExtraCrossTraffic(b *testing.B) {
	for _, loadPct := range []float64{0, 50, 90} {
		loadPct := loadPct
		b.Run(fmt.Sprintf("load=%g%%", loadPct), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				spec, err := topology.VBNSSpec(topology.VBNSConfig{
					HostsPerSite:  3, // third host per site carries the cross traffic
					BottleneckBps: 10e6,
				})
				if err != nil {
					b.Fatal(err)
				}
				m, err := core.Build(core.BuildConfig{
					Seed:      23,
					Target:    core.AlphaCluster,
					Topo:      spec,
					HostRanks: []string{"ucsd0", "ucsd1", "uiuc0", "uiuc1"},
				})
				if err != nil {
					b.Fatal(err)
				}
				if loadPct > 0 {
					nw := m.Grid.Network()
					src, dst := nw.Node("ucsd2"), nw.Node("uiuc2")
					netsim.CountingSink(dst, 99)
					gen, err := netsim.StartCBR(src, dst, 99, 10e6*loadPct/100, 1000)
					if err != nil {
						b.Fatal(err)
					}
					// Bound the generator's lifetime so the simulation
					// drains after the job completes.
					m.Eng.After(60*simcore.Second, gen.Stop)
				}
				report, err := m.RunApp("MG", func(ctx *AppContext) error {
					return RunNPB(ctx, "MG", NPBClassS, nil)
				}, core.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				modeled = report.VirtualElapsed.Seconds()
			}
			b.ReportMetric(modeled, "modeled_s")
		})
	}
}

// benchEventThroughput dispatches b.N self-rescheduling 1 µs events on a
// serial engine with rec attached (nil for none).
func benchEventThroughput(b *testing.B, rec *trace.Recorder) {
	eng := simcore.NewEngine(1)
	eng.SetRecorder(rec)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(simcore.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(simcore.Microsecond, tick)
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineEventThroughput measures the DES core's raw event rate —
// the scalability budget the paper's future-work section worries about.
func BenchmarkEngineEventThroughput(b *testing.B) { benchEventThroughput(b, nil) }

// BenchmarkEngineEventThroughputTraceOff is the event-throughput bench
// with a recorder attached but every category masked off: it pins the
// cost of the disabled-tracing fast path on the dispatch hot loop, which
// must stay within the regression gate of the untraced bench.
func BenchmarkEngineEventThroughputTraceOff(b *testing.B) {
	benchEventThroughput(b, trace.NewRecorder(0, 0))
}

// BenchmarkEngineEventThroughputTraceOn is the event-throughput bench
// with every category recorded into a DefaultBufSize ring: ns/op is one
// dispatch plus its "dispatch" trace record.
func BenchmarkEngineEventThroughputTraceOn(b *testing.B) {
	benchEventThroughput(b, trace.NewRecorder(trace.DefaultBufSize, trace.CatAll))
}

// benchParallelRing is the shard-scaling workload behind
// BenchmarkParallelEngineEvents: every shard drives a 1 µs local tick
// chain (Fig. 10-class event density — the NPB runs dispatch events at
// microsecond cadence) and every 256th tick sends a cross-shard event to
// its ring neighbor one lookahead (1 ms) ahead. With a 1 ms lookahead
// each barrier window covers ~1000 events per shard, so the windowing
// overhead is amortized the way a real multi-cluster run would amortize
// it over WAN latency.
func benchParallelRing(b *testing.B, shards int) {
	pe := simcore.NewParallelEngine(1, shards)
	pe.SetLookahead(simcore.Millisecond)
	perShard := b.N / shards
	if perShard == 0 {
		perShard = 1
	}
	for i := 0; i < shards; i++ {
		i := i
		eng := pe.Shard(i)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n%256 == 0 {
				pe.Send(i, (i+1)%shards, eng.Now().Add(simcore.Millisecond), func() {})
			}
			if n < perShard {
				eng.After(simcore.Microsecond, tick)
			}
		}
		eng.After(simcore.Microsecond, tick)
	}
	b.ResetTimer()
	if err := pe.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(pe.Windows()), "windows")
}

// BenchmarkParallelEngineEvents pins the conservative parallel engine's
// event throughput against the serial engine on the same ring workload
// (see DESIGN.md §10). shards=1 measures the pure windowing overhead —
// no goroutines are spawned for a single active shard — and shards=2..8
// measure barrier-synchronized scaling. Events/sec scaling beyond 1×
// requires real cores: on a single-CPU runner the parallel sub-benches
// pin the coordination overhead instead.
func BenchmarkParallelEngineEvents(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		se := simcore.NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n%256 == 0 {
				se.After(simcore.Millisecond, func() {})
			}
			if n < b.N {
				se.After(simcore.Microsecond, tick)
			}
		}
		b.ResetTimer()
		se.After(simcore.Microsecond, tick)
		if err := se.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchParallelRing(b, shards)
		})
	}
}

// benchPartitionedFig14 runs NPB MG class W over the vBNS testbed (the
// Fig. 14 grid scaled to four hosts per site, four ranks at UCSD and
// four at UIUC) once per iteration, serial or partitioned across shards
// with automatic cluster placement, and reports the model's event
// throughput. The scale matters: ~250k events over ~4600 one-millisecond
// lookahead windows gives each campus shard enough work per window to
// amortize the barrier. Real events/sec scaling still needs real cores:
// on a single-CPU runner the shard sub-benches pin the partition layer's
// coordination overhead instead, and CI's speedup gate (cmd/benchjson
// -speedup) only arms itself on multi-core machines.
func benchPartitionedFig14(b *testing.B, shards int) {
	var events, cross, windows int64
	for i := 0; i < b.N; i++ {
		spec, err := topology.VBNSSpec(topology.VBNSConfig{
			HostsPerSite:  4,
			BottleneckBps: topology.OC12Bps,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := core.Fig14Scenario()
		s.Topology = spec
		s.HostRanks = []string{
			"ucsd0", "ucsd1", "ucsd2", "ucsd3",
			"uiuc0", "uiuc1", "uiuc2", "uiuc3",
		}
		s.Workload.Bench = "MG"
		s.Workload.Class = 'W'
		s.Workload.Ranks = 8
		if shards > 0 {
			s.EngineShards = shards
			s.Partition = &ScenarioPartition{Auto: true}
		}
		m, err := core.BuildScenario(s)
		if err != nil {
			b.Fatal(err)
		}
		if shards > 0 && !m.Partitioned() {
			b.Fatal("vBNS build did not partition")
		}
		if _, err := m.RunWorkload(s); err != nil {
			b.Fatal(err)
		}
		if pe := m.ParallelEngine(); pe != nil {
			for j := 0; j < pe.NumShards(); j++ {
				events += pe.Shard(j).Dispatched()
			}
			cross += pe.CrossEvents()
			windows += pe.Windows()
		} else {
			events += m.Eng.Dispatched()
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	if shards > 0 {
		// The placement's footprint: how many events cross shards, and
		// over how many barrier windows.
		b.ReportMetric(float64(cross)/float64(b.N), "cross/op")
		b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
	}
}

// BenchmarkPartitionedFig14 pins the tentpole of the partitioned-model
// work: the same multi-cluster figure workload on the serial engine and
// on the partitioned parallel engine at 2 and 4 shards. The runs are
// byte-identical in their results (TestPartitionedRunByteIdentical);
// this bench measures what the partition buys in events/sec.
func BenchmarkPartitionedFig14(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchPartitionedFig14(b, 0) })
	for _, shards := range []int{2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchPartitionedFig14(b, shards)
		})
	}
}

// BenchmarkScale100k pins the scalable resource model's economics:
// build and run the committed 100k-host example (a generated star grid,
// flow-fidelity wide area, NPB MG on an 8-rank working set) and report
// allocated bytes per DECLARED host. Laziness is the whole claim —
// an untouched declaration costs about 500 bytes (its netsim node with
// no transport state, its access link without channels and pointing at
// a config shared with the other access links, their map entries and
// interface slots, and the generated spec entry it was wired from), not
// a scheduler, gatekeeper daemon, and GIS row each — so CI holds
// bytes/host under an absolute ceiling (cmd/benchjson -ceiling), which
// a regression to eager materialization or to per-host configuration
// copies would blow past.
func BenchmarkScale100k(b *testing.B) {
	data, err := os.ReadFile("examples/scale-100k/scale100k.scenario")
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.ParseString(string(data))
	if err != nil {
		b.Fatal(err)
	}
	var bytesPerHost, live float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := core.BuildScenarioEnv(s, core.ScenarioEnv{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.RunWorkload(s); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		declared := m.Grid.DeclaredHosts()
		if declared < 100000 {
			b.Fatalf("example declares %d hosts, want >= 100000", declared)
		}
		bytesPerHost = float64(after.TotalAlloc-before.TotalAlloc) / float64(declared)
		live = float64(m.Grid.MaterializedCount())
	}
	b.ReportMetric(bytesPerHost, "bytes/host")
	b.ReportMetric(live, "hosts_live")
}

// BenchmarkProcContextSwitch measures process park/resume cost.
func BenchmarkProcContextSwitch(b *testing.B) {
	eng := simcore.NewEngine(1)
	eng.Spawn("p", func(p *simcore.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(simcore.Microsecond)
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
