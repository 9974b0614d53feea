package microgrid

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 1, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hosts) != 4 || m.Rate() != 1 {
		t.Fatalf("hosts=%v rate=%v", m.Hosts, m.Rate())
	}
	report, err := m.RunApp("api-test", func(ctx *AppContext) error {
		if ctx.Proc.Gethostname() == "" {
			return fmt.Errorf("no hostname")
		}
		ctx.Proc.ComputeVirtualSeconds(0.2)
		return ctx.Comm.Barrier()
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.VirtualElapsed.Seconds()-0.2) > 0.02 {
		t.Fatalf("elapsed = %v", report.VirtualElapsed)
	}
}

func TestPublicAPINPB(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 2, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.RunApp("is.S.4", func(ctx *AppContext) error {
		return RunNPB(ctx, "IS", NPBClassS, nil)
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.VirtualElapsed <= 0 {
		t.Fatalf("elapsed = %v", report.VirtualElapsed)
	}
}

func TestPublicAPIWaveToyWithParFile(t *testing.T) {
	params, _, err := ParseWaveToyParFile(strings.NewReader(
		"driver::global_nsize = 20\ncactus::cctk_itlast = 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(BuildConfig{Seed: 3, Target: AlphaCluster})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunApp("wavetoy", func(ctx *AppContext) error {
		return RunWaveToy(ctx, params)
	}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIVBNS(t *testing.T) {
	spec, err := VBNSSpec(2, OC3Bps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(BuildConfig{
		Seed:      4,
		Target:    AlphaCluster,
		Topo:      spec,
		HostRanks: []string{"ucsd0", "ucsd1", "uiuc0", "uiuc1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.RunApp("ep", func(ctx *AppContext) error {
		return RunNPB(ctx, "EP", NPBClassS, nil)
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.VirtualElapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, want := range []string{"fig05", "fig06", "fig07", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if _, err := GetExperiment("fig16"); err != nil {
		t.Fatal(err)
	}
}

// TestPublicCampaignAPI drives the campaign runner through the public
// surface: registry-backed tasks mixed with a synthetic failure, results
// in task order, artifacts on disk.
func TestPublicCampaignAPI(t *testing.T) {
	tasks := Campaign(ExperimentRun{Quick: true})
	if len(tasks) != len(Experiments()) || tasks[0].ID != "fig05" {
		t.Fatalf("campaign = %d tasks, first %q", len(tasks), tasks[0].ID)
	}
	boom := CampaignTask{ID: "boom", Run: func(ctx context.Context) (*Experiment, error) {
		return nil, fmt.Errorf("kaput")
	}}
	results := RunCampaign(context.Background(),
		[]CampaignTask{tasks[0], boom}, CampaignOptions{Workers: 2, Retries: -1})
	if results[0].Status != CampaignOK || results[0].Experiment.ID != "fig05" {
		t.Fatalf("fig05 result = %+v", results[0])
	}
	if results[1].Status != CampaignFailed || results[1].Err == nil {
		t.Fatalf("boom result = %+v", results[1])
	}
	dir := t.TempDir()
	if err := WriteCampaignArtifacts(dir, results, true); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"campaign.json", "timings.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}
}

func TestNPBNames(t *testing.T) {
	names := NPBNames()
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
}

// TestScalesToDozensOfHosts addresses the paper's near-term goal of
// "scaling to dozens of machines": a 32-host virtual grid running EP
// end-to-end through the Globus stack.
func TestScalesToDozensOfHosts(t *testing.T) {
	m, err := Build(BuildConfig{Seed: 5, Target: AlphaCluster.WithProcs(32)})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hosts) != 32 {
		t.Fatalf("hosts = %d", len(m.Hosts))
	}
	report, err := m.RunApp("ep32", func(ctx *AppContext) error {
		if ctx.Comm.Size() != 32 {
			return fmt.Errorf("size = %d", ctx.Comm.Size())
		}
		return RunNPB(ctx, "EP", NPBClassS, nil)
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// EP scales: 32 ranks ≈ 8× faster than 4 ranks (~3.5s → ~0.45s).
	if report.VirtualElapsed.Seconds() > 1.0 {
		t.Fatalf("EP on 32 hosts took %v", report.VirtualElapsed)
	}
}

// TestRanksPerHost runs 8 EP ranks on 4 virtual hosts (GRAM count >
// hosts): two ranks timeshare each virtual CPU, so the wall time matches
// the 4-rank run (same per-host work) rather than the 8-host run.
func TestRanksPerHost(t *testing.T) {
	run := func(rph int) float64 {
		m, err := Build(BuildConfig{Seed: 7, Target: AlphaCluster})
		if err != nil {
			t.Fatal(err)
		}
		wantRanks := 4 * rph
		report, err := m.RunApp("ep", func(ctx *AppContext) error {
			if ctx.Comm.Size() != wantRanks {
				return fmt.Errorf("size = %d, want %d", ctx.Comm.Size(), wantRanks)
			}
			return RunNPB(ctx, "EP", NPBClassS, nil)
		}, RunOptions{RanksPerHost: rph, BasePort: 9000})
		if err != nil {
			t.Fatal(err)
		}
		return report.VirtualElapsed.Seconds()
	}
	t4 := run(1)
	t8 := run(2)
	// Each host still executes 1/4 of the pairs; oversubscription should
	// cost little for the compute-bound EP.
	if math.Abs(t8-t4)/t4 > 0.1 {
		t.Fatalf("2 ranks/host %.3fs vs 1 rank/host %.3fs", t8, t4)
	}
}

// TestEmulatedScaleOut: 8 virtual hosts emulated on 4 physical machines —
// a 2:1 virtual-to-physical mapping, the resource-multiplexing case the
// MicroGrid exists for.
func TestEmulatedScaleOut(t *testing.T) {
	emu := AlphaCluster // 4 physical
	m, err := Build(BuildConfig{
		Seed:      6,
		Target:    AlphaCluster.WithProcs(8),
		Emulation: &emu,
		Rate:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each physical host carries two virtual hosts at fraction 0.25 each.
	h := m.Grid.Host("vm0")
	if math.Abs(h.Fraction-0.25) > 1e-9 {
		t.Fatalf("fraction = %v", h.Fraction)
	}
	report, err := m.RunApp("ep8", func(ctx *AppContext) error {
		return RunNPB(ctx, "EP", NPBClassS, nil)
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct 8-host EP-S ≈ 1.77s; the emulated run must agree in virtual
	// time within a few percent (EP barely communicates).
	if math.Abs(report.VirtualElapsed.Seconds()-1.77) > 0.15 {
		t.Fatalf("EP on 8 emulated hosts: %v", report.VirtualElapsed)
	}
}
