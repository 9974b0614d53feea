package microgrid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// tracedChaosCrashJSONL runs the chaos-crash experiment (quick) under
// global tracing on a campaign pool of the given width and returns the
// exported JSONL bytes.
func tracedChaosCrashJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	ResetTracing()
	defer ResetTracing()
	EnableTracing(TraceConfig{Mask: TraceAll})
	fn, err := GetExperiment("chaos-crash")
	if err != nil {
		t.Fatal(err)
	}
	tasks := []CampaignTask{{
		ID: "chaos-crash",
		Run: func(ctx context.Context) (*Experiment, error) {
			return fn(true)
		},
	}}
	results := RunCampaign(context.Background(), tasks, CampaignOptions{Workers: workers})
	if results[0].Status != CampaignOK {
		t.Fatalf("chaos-crash failed: %+v", results[0].Err)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf); err != nil {
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

// TestTraceSnapshotsLabeledByBuildOrder checks that the global registry
// labels recorders by build order so exports sort deterministically.
func TestTraceSnapshotsLabeledByBuildOrder(t *testing.T) {
	ResetTracing()
	defer ResetTracing()
	EnableTracing(TraceConfig{Mask: TraceAll})
	for i := 0; i < 2; i++ {
		m, err := Build(BuildConfig{Seed: 7, Target: AlphaCluster})
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
	snaps := TraceSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	for i, want := range []string{"00:Alpha Cluster", "01:Alpha Cluster"} {
		if snaps[i].Label != want {
			t.Errorf("snapshot %d label = %q, want %q", i, snaps[i].Label, want)
		}
		if snaps[i].Emitted == 0 {
			t.Errorf("snapshot %d recorded no events", i)
		}
	}
}
