package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a bench in this process re-executes itself as a child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at its tiny size through the
// correctness gate: the structural checks, run-to-run determinism and,
// for the partitioned workload, identity with the serial engine.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			b := &bench{ctx: context.Background(), w: w, seed: defaultSeed, tiny: true}
			text := w.scenarioText(defaultSeed, true)
			if w.serialTwin {
				twin := runChild(text, modeSerial)
				if twin.Err != "" {
					t.Fatal(twin.Err)
				}
				b.twin = twin.ReportDigest
			}
			for i := 0; i < 2; i++ {
				if r := runChild(text, modePlain); !b.gate(r) {
					t.Fatalf("run %d failed the gate: %+v", i, r)
				}
			}
		})
	}
}

// TestGateRejects checks that the gate fails runs it must fail: a
// changed report, and a partitioned report that differs from serial.
func TestGateRejects(t *testing.T) {
	w := findWorkload("vbns-lu-2shard")
	good := runChild(w.scenarioText(defaultSeed, true), modePlain)
	b := &bench{w: w, seed: 5, tiny: true}
	if !b.gate(good) {
		t.Fatalf("good run rejected: %+v", good)
	}
	bad := *good
	bad.ReportDigest = sha("different")
	if b.gate(&bad) {
		t.Fatal("gate accepted a run whose report changed between runs")
	}
	b = &bench{w: w, seed: 5, tiny: true, twin: sha("serial")}
	if b.gate(good) {
		t.Fatal("gate accepted a partitioned report that differs from serial")
	}
	full := &bench{w: w, seed: 5}
	if full.gate(good) {
		t.Fatal("gate accepted a report that differs from the committed digest")
	}
}

type registered struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricNamesRegistered checks that each mode emits exactly the
// metrics BENCHMARK.json registers, with the registered units.
func TestMetricNamesRegistered(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []registered            `json:"end_to_end"`
		PerLayer  []registered            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json has %v, benchmark has %v", names, ours)
	}

	b := &bench{ctx: context.Background(), w: findWorkload("npb-bt-a"), seed: defaultSeed, tiny: true}
	compare(t, "end_to_end", spec.EndToEnd, b.endToEnd())
	b = &bench{ctx: context.Background(), w: findWorkload("npb-bt-a"), seed: defaultSeed, tiny: true}
	compare(t, "per_layer", spec.PerLayer, b.perLayer())
}

func compare(t *testing.T, section string, want []registered, got result) {
	t.Helper()
	if !got.Correct || got.Failed != 0 {
		t.Errorf("%s: tiny run failed: %+v", section, got)
	}
	wantNames := make([]string, 0, len(want))
	for _, r := range want {
		wantNames = append(wantNames, r.Name)
		if m, ok := got.Metrics[r.Name]; ok && m.Unit != r.Unit {
			t.Errorf("%s: %s has unit %q, registered %q", section, r.Name, m.Unit, r.Unit)
		}
	}
	sort.Strings(wantNames)
	gotNames := make([]string, 0, len(got.Metrics))
	for n := range got.Metrics {
		gotNames = append(gotNames, n)
	}
	sort.Strings(gotNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("%s: emitted %v\nregistered %v", section, gotNames, wantNames)
	}
}

// TestSelfTimeSumsToProfile checks that layer attribution neither drops
// nor double-counts samples.
func TestSelfTimeSumsToProfile(t *testing.T) {
	r := runChild(findWorkload("npb-bt-a").scenarioText(defaultSeed, true), modeProfile)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.TotalSamples == 0 || r.SamplePeriodNS == 0 {
		t.Fatalf("empty profile: %+v", r)
	}
	var sum int64
	for l, n := range r.Samples {
		found := false
		for _, known := range layers {
			found = found || l == known
		}
		if !found {
			t.Errorf("samples credited to unknown layer %q", l)
		}
		sum += n
	}
	if sum != r.TotalSamples {
		t.Fatalf("layers hold %d samples, profile has %d", sum, r.TotalSamples)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"microgrid/internal/simcore.(*Engine).siftDown", "/x/internal/simcore/engine.go", "simcore"},
		{"microgrid/internal/simcore.(*ParallelEngine).runShards.func1", "/x/internal/simcore/parallel.go", "pdes"},
		{"microgrid/internal/netsim.(*Conn).Send", "/x/internal/netsim/tcp.go", "netsim"},
		{"microgrid/internal/memmodel.(*Limiter).Alloc", "/x/internal/memmodel/mem.go", "other"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"main.runChild", "/x/perfbench/child.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}
