package core

import (
	"math"
	"strings"
	"testing"

	"microgrid/internal/gis"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
)

func TestBuildDirect(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 1, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsDirect() || m.Rate() != 1 {
		t.Fatalf("direct=%v rate=%v", m.IsDirect(), m.Rate())
	}
	if len(m.Hosts) != 4 {
		t.Fatalf("hosts = %v", m.Hosts)
	}
	// GIS has 4 host records with gatekeeper ports plus a network record.
	if got := len(m.GIS.Search("", gis.ScopeSubtree, gis.Eq(gis.AttrIsVirtual, "Yes"))); got != 5 {
		t.Fatalf("virtual records = %d", got)
	}
	rec := m.GIS.Search("", gis.ScopeSubtree, gis.Eq(gis.AttrNwType, "LAN"))
	if len(rec) != 1 || rec[0].Get(gis.AttrSpeed) == "" {
		t.Fatalf("network record = %v", rec)
	}
}

func TestBuildEmulated(t *testing.T) {
	emu := AlphaCluster
	m, err := Build(BuildConfig{Seed: 1, Target: AlphaCluster, Emulation: &emu, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.IsDirect() || m.Rate() != 0.5 {
		t.Fatalf("direct=%v rate=%v", m.IsDirect(), m.Rate())
	}
	h := m.Grid.Host("vm0")
	if math.Abs(h.Fraction-0.5) > 1e-9 {
		t.Fatalf("fraction = %v", h.Fraction)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(BuildConfig{Target: scenario.Machine{}}); err == nil {
		t.Fatal("empty target accepted")
	}
	spec := &struct{}{}
	_ = spec
	if _, err := Build(BuildConfig{Target: AlphaCluster, Topo: nil, HostRanks: nil}); err != nil {
		t.Fatalf("default build failed: %v", err)
	}
}

func TestRunAppThroughGlobus(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 2, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[int]string{}
	r, err := m.RunApp("hello", func(ctx *AppContext) error {
		ranks[ctx.Comm.Rank()] = ctx.Proc.Gethostname()
		ctx.Proc.ComputeVirtualSeconds(0.1)
		return nil
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 4 || ranks[2] != "vm2" {
		t.Fatalf("ranks = %v", ranks)
	}
	if math.Abs(r.VirtualElapsed.Seconds()-0.1) > 0.01 {
		t.Fatalf("elapsed = %v", r.VirtualElapsed)
	}
	if r.PhysicalElapsed <= 0 {
		t.Fatalf("physical elapsed = %v", r.PhysicalElapsed)
	}
}

func TestRunAppTwiceFails(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 2, Target: AlphaCluster.WithProcs(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunApp("a", func(*AppContext) error { return nil }, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunApp("b", func(*AppContext) error { return nil }, RunOptions{}); err == nil {
		t.Fatal("second RunApp accepted")
	}
}

func TestRunAppEmulatedVirtualTimeMatchesDirect(t *testing.T) {
	run := func(emulated bool) simcore.Duration {
		cfg := BuildConfig{Seed: 3, Target: AlphaCluster.WithProcs(2)}
		if emulated {
			emu := AlphaCluster.WithProcs(2)
			cfg.Emulation = &emu
			cfg.Rate = 0.5
		}
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunApp("work", func(ctx *AppContext) error {
			for i := 0; i < 10; i++ {
				ctx.Proc.ComputeVirtualSeconds(0.05)
				if _, err := ctx.Comm.AllreduceFloat64([]float64{1}, func(a, b float64) float64 { return a + b }); err != nil {
					return err
				}
			}
			return nil
		}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r.VirtualElapsed
	}
	direct := run(false)
	emu := run(true)
	errPct := 100 * math.Abs(emu.Seconds()-direct.Seconds()) / direct.Seconds()
	if errPct > 10 {
		t.Fatalf("emulated %v vs direct %v: %.1f%% error", emu, direct, errPct)
	}
}

func TestGetExperiment(t *testing.T) {
	if _, err := GetExperiment("fig05"); err != nil {
		t.Fatal(err)
	}
	if _, err := GetExperiment("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if n := len(Experiments()); n != 15 {
		t.Fatalf("experiment count = %d", n)
	}
}

func TestFig05Quick(t *testing.T) {
	e, err := Fig05Memory(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Metrics["slope"]-1) > 1e-9 {
		t.Fatalf("slope = %v", e.Metrics["slope"])
	}
	if e.Metrics["overhead_bytes"] != 1024 {
		t.Fatalf("overhead = %v", e.Metrics["overhead_bytes"])
	}
	if !strings.Contains(e.Table.String(), "limit_kb") {
		t.Fatal("table malformed")
	}
}

func TestFig06Quick(t *testing.T) {
	e, err := Fig06CPUFraction(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Below the knee all modes track the specification.
	if v := e.Metrics["spec20_none"]; math.Abs(v-20) > 3 {
		t.Fatalf("none@20 = %v", v)
	}
	if v := e.Metrics["spec20_cpu"]; math.Abs(v-20) > 4 {
		t.Fatalf("cpu@20 = %v", v)
	}
	// At 90% the CPU competitor prevents full delivery.
	if v := e.Metrics["spec90_cpu"]; v > 75 {
		t.Fatalf("cpu@90 = %v, expected saturation", v)
	}
	if v := e.Metrics["spec90_none"]; v < 80 {
		t.Fatalf("none@90 = %v", v)
	}
}

// A fraction the daemon refuses fails the measurement instead of
// reporting a delivered fraction.
func TestFig06MeasureRejectsFraction(t *testing.T) {
	for _, f := range []float64{0, 1.5} {
		if d, err := fig06Measure(Fig06Scenario(), f, "none", 1); err == nil {
			t.Errorf("fraction %v: delivered %v, want an error", f, d)
		}
	}
}

func TestFig07Quick(t *testing.T) {
	e, err := Fig07QuantaDistribution(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"none", "cpu", "io"} {
		if v := e.Metrics["mean_"+comp]; math.Abs(v-1) > 1e-9 {
			t.Fatalf("mean_%s = %v", comp, v)
		}
		if e.Metrics["n_"+comp] < 100 {
			t.Fatalf("too few samples for %s: %v", comp, e.Metrics["n_"+comp])
		}
	}
	// No competition is the tightest distribution.
	if e.Metrics["dev_none"] > e.Metrics["dev_io"] {
		t.Fatalf("dev none (%v) > dev io (%v)", e.Metrics["dev_none"], e.Metrics["dev_io"])
	}
}

func TestFig08Quick(t *testing.T) {
	e, err := Fig08NetworkModel(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Metrics["worst_latency_err_pct"] > 15 {
		t.Fatalf("latency error %v%%", e.Metrics["worst_latency_err_pct"])
	}
	if e.Metrics["worst_bandwidth_err_pct"] > 15 {
		t.Fatalf("bandwidth error %v%%", e.Metrics["worst_bandwidth_err_pct"])
	}
	// Sanity: large-message bandwidth approaches the 100 Mb/s link.
	if bw := e.Metrics["bw_real_65536"]; bw < 8 || bw > 12.6 {
		t.Fatalf("64KB bandwidth = %v MB/s", bw)
	}
}

func TestFig09(t *testing.T) {
	e, err := Fig09Configurations(&ExperimentRun{})
	if err != nil {
		t.Fatal(err)
	}
	out := e.Table.String()
	for _, want := range []string{"Alpha Cluster", "HPVM", "100Mb Ethernet", "1.2Gb Myrinet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in table:\n%s", want, out)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	e, err := Fig10NPBClassA(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode runs class S, where the 10 ms quantum's boundary stalls
	// are a large relative cost (that is exactly Fig. 11's subject);
	// class A errors — the paper's 2–4% — are checked by the bench
	// harness. Here we bound the class-S error and require the
	// compute-bound benchmark to match tightly.
	if e.Metrics["worst_err_pct"] > 80 {
		t.Fatalf("worst error %.2f%%:\n%s", e.Metrics["worst_err_pct"], e.Table.String())
	}
	if v := e.Metrics["alpha_EP_err_pct"]; v > 2 {
		t.Fatalf("EP error %.2f%%, want < 2%%", v)
	}
	// Myrinet helps the network-bound IS far more than compute-bound EP.
	alphaIS := e.Metrics["alpha_IS_pgrid_s"]
	hpvmIS := e.Metrics["hpvm_IS_pgrid_s"]
	if alphaIS <= hpvmIS {
		t.Fatalf("IS: alpha %v should exceed hpvm %v (network-bound)", alphaIS, hpvmIS)
	}
	alphaEP := e.Metrics["alpha_EP_pgrid_s"]
	hpvmEP := e.Metrics["hpvm_EP_pgrid_s"]
	if hpvmEP <= alphaEP {
		t.Fatalf("EP: hpvm %v should exceed alpha %v (slower CPU)", hpvmEP, alphaEP)
	}
}

func TestFig11Quick(t *testing.T) {
	e, err := Fig11QuantumSweep(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Smaller quantum should not be (much) worse than the large one for
	// the synchronizing benchmark MG.
	small := e.Metrics["MG_err_pct_2.5ms"]
	large := e.Metrics["MG_err_pct_10ms"]
	if small > large+5 {
		t.Fatalf("MG: 2.5ms err %.2f%% much worse than 10ms err %.2f%%", small, large)
	}
}

func TestFig12Quick(t *testing.T) {
	e, err := Fig12CPUScaling(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// EP speeds up nearly linearly with CPU.
	if v := e.Metrics["EP_norm_4x"]; v > 0.35 {
		t.Fatalf("EP at 4x CPU normalized %v, want ≈0.25", v)
	}
	// MG is communication-bound on the slow network: far less speedup.
	if v := e.Metrics["MG_norm_4x"]; v < e.Metrics["EP_norm_4x"] {
		t.Fatalf("MG (%v) should benefit less than EP (%v)", v, e.Metrics["EP_norm_4x"])
	}
}

func TestFig14Quick(t *testing.T) {
	e, err := Fig14VBNSDegrade(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Latency dominates: MG's time changes only mildly between OC12 and
	// 10 Mb/s (paper's conclusion).
	fast := e.Metrics["MG_622M_s"]
	slow := e.Metrics["MG_10M_s"]
	if fast <= 0 || slow <= 0 {
		t.Fatalf("times %v %v", fast, slow)
	}
	if slow > 4*fast {
		t.Fatalf("MG over-sensitive to bandwidth: %v vs %v", slow, fast)
	}
	// EP barely notices the WAN at all.
	epFast := e.Metrics["EP_622M_s"]
	epSlow := e.Metrics["EP_10M_s"]
	if math.Abs(epSlow-epFast)/epFast > 0.05 {
		t.Fatalf("EP sensitive to WAN bandwidth: %v vs %v", epSlow, epFast)
	}
}

func TestFig15Quick(t *testing.T) {
	e, err := Fig15EmulationRates(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// EP (compute-bound) is rate-invariant even at class S; the
	// communication-bound kernels deviate at class S because slower rates
	// stretch message serialization across scheduling windows (the same
	// quantization Fig. 11 studies) — class A invariance is checked by
	// the bench harness.
	if v := e.Metrics["EP_norm_4x"]; v < 0.9 || v > 1.1 {
		t.Fatalf("EP_norm_4x = %v, want ≈1 (rate invariance)", v)
	}
	if v := e.Metrics["MG_norm_4x"]; v > 3.5 {
		t.Fatalf("MG_norm_4x = %v, implausibly rate-sensitive", v)
	}
}

func TestFig16Quick(t *testing.T) {
	e, err := Fig16Cactus(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Metrics["worst_err_pct"] > 15 {
		t.Fatalf("worst error %.2f%%", e.Metrics["worst_err_pct"])
	}
}

func TestFig17Quick(t *testing.T) {
	e, err := Fig17Autopilot(&ExperimentRun{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"EP", "MG"} {
		if e.Metrics[b+"_samples"] < 3 {
			t.Fatalf("%s has %v samples", b, e.Metrics[b+"_samples"])
		}
	}
	// EP's internal trace follows tightly even at class S; MG's class-S
	// run is dominated by quantum stalls (Fig. 11), so only a loose bound
	// applies here — the paper's class-A skews are the bench's job.
	if v := e.Metrics["EP_skew_pct"]; v > 15 {
		t.Fatalf("EP skew %.2f%%", v)
	}
	if v := e.Metrics["MG_skew_pct"]; v > 100 {
		t.Fatalf("MG skew %.2f%%", v)
	}
}
