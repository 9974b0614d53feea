package microgrid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"microgrid/internal/trace"
)

// tracedChaosCrashJSONL runs the chaos-crash experiment (quick), traced,
// on a campaign pool of the given width and returns the exported JSONL
// bytes.
func tracedChaosCrashJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	var tasks []CampaignTask
	for _, task := range Campaign(ExperimentRun{Quick: true, Trace: &ScenarioTrace{Mask: TraceAll}}) {
		if task.ID == "chaos-crash" {
			tasks = append(tasks, task)
		}
	}
	results := RunCampaign(context.Background(), tasks, CampaignOptions{Workers: workers})
	if results[0].Status != CampaignOK {
		t.Fatalf("chaos-crash failed: %+v", results[0].Err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, results[0].Experiment.TraceRuns); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminismAcrossWorkers is the tracing acceptance criterion:
// one seed produces a byte-identical JSONL export regardless of the
// campaign worker count — including under injected faults, whose chaos
// events must appear in the stream.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	j1 := tracedChaosCrashJSONL(t, 1)
	j4 := tracedChaosCrashJSONL(t, 4)
	if len(j1) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(j1, j4) {
		t.Fatalf("trace export differs across worker counts: %d vs %d bytes", len(j1), len(j4))
	}
	out := string(j1)
	if !strings.Contains(out, `"cat":"chaos","name":"crash"`) {
		t.Error("chaos crash event missing from trace")
	}
	for _, want := range []string{`"cat":"mpi","name":"send"`, `"cat":"net","name":"hop"`,
		`"cat":"globus","name":"submit"`, `"cat":"cpu","name":"slice"`} {
		if !strings.Contains(out, want) {
			t.Errorf("expected event %s missing from trace", want)
		}
	}
	// Every recorder footer must surface its drop counter (satellite:
	// no silent caps).
	if !strings.Contains(out, `"dropped":`) {
		t.Error("drop counter missing from export footers")
	}
}

// chaosCrashTraceSHA256 pins the traced quick chaos-crash export. With
// every category on, the trace records each engine dispatch, so any
// reordering of events — or an added or missing one — changes it.
const chaosCrashTraceSHA256 = "1973950ce66e0cb8fb1d225422a97132f3d070137220d95f579b2f281ac438c6"

// TestTraceDigestPinned checks the traced chaos-crash JSONL against the
// committed digest: engine and model changes must leave the dispatch
// order byte-identical.
func TestTraceDigestPinned(t *testing.T) {
	sum := sha256.Sum256(tracedChaosCrashJSONL(t, 1))
	if got := hex.EncodeToString(sum[:]); got != chaosCrashTraceSHA256 {
		t.Fatalf("traced chaos-crash JSONL sha256 = %s, want %s", got, chaosCrashTraceSHA256)
	}
}

// TestTraceRunsLabeledByBuildOrder checks that an experiment invocation
// labels each traced build's run by build order, so exports read in the
// order the arms ran.
func TestTraceRunsLabeledByBuildOrder(t *testing.T) {
	x := &ExperimentRun{Trace: &ScenarioTrace{Mask: TraceAll}}
	for i := 0; i < 2; i++ {
		s := &Scenario{Name: "t", Seed: 7, Target: &AlphaCluster}
		m, err := x.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunApp("t", func(ctx *AppContext) error {
			ctx.Proc.ComputeVirtualSeconds(0.01)
			return ctx.Comm.Barrier()
		}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runs := x.Traces()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	for i, want := range []string{"00:Alpha Cluster", "01:Alpha Cluster"} {
		if runs[i].Label != want {
			t.Errorf("run %d label = %q, want %q", i, runs[i].Label, want)
		}
		if runs[i].Emitted == 0 {
			t.Errorf("run %d recorded no events", i)
		}
	}
}
