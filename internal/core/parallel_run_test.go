package core

import (
	"bytes"
	"reflect"
	"testing"

	"microgrid/internal/chaos"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// chaosTracedRun executes the chaos-crash scenario (class S, crash vm1,
// retry armed) with the given engine choice and returns the report plus
// the full trace export — the same artifacts the CI determinism matrix
// compares across {serial, shards=2, shards=4} × {-j1, -j4}.
func chaosTracedRun(t *testing.T, shards int) (*Report, []byte) {
	t.Helper()
	s := ChaosCrashScenario()
	s.Workload.Class = 'S'
	s.EngineShards = shards
	s.Trace = &scenario.TraceSpec{Mask: trace.CatAll}
	cs, err := chaos.ParseScheduleString("schedule host-crash\nat 600ms crash vm1\n")
	if err != nil {
		t.Fatal(err)
	}
	s.Chaos = cs
	s.Retry = &scenario.RetrySpec{
		StatusTimeout: 3 * simcore.Second,
		MaxAttempts:   3,
		Backoff:       100 * simcore.Millisecond,
	}
	m, err := BuildScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 && m.ParallelEngine() == nil {
		t.Fatalf("shards=%d built without a parallel engine", shards)
	}
	if shards == 0 && m.ParallelEngine() != nil {
		t.Fatal("serial build got a parallel engine")
	}
	rep, err := m.RunWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := m.Trace()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, []trace.Run{run}); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestParallelModelRunByteIdentical is the in-tree half of the ISSUE 6
// acceptance criterion: a traced chaos-crash run must produce identical
// reports and byte-identical trace exports on the serial engine and the
// parallel engine at 4 shards (the grid model occupies shard 0; see
// DESIGN.md §10).
func TestParallelModelRunByteIdentical(t *testing.T) {
	serialRep, serialTrace := chaosTracedRun(t, 0)
	for _, shards := range []int{1, 4} {
		rep, tr := chaosTracedRun(t, shards)
		if !reflect.DeepEqual(serialRep, rep) {
			t.Errorf("shards=%d: report diverged from serial:\nserial: %+v\nshards: %+v", shards, serialRep, rep)
		}
		if !bytes.Equal(serialTrace, tr) {
			t.Errorf("shards=%d: trace JSONL diverged from serial (%d vs %d bytes)",
				shards, len(serialTrace), len(tr))
		}
	}
}

// TestShardsOverrideOutranksScenario pins the CLI contract: the -shards
// flag (ExperimentRun.Shards) outranks the scenario's engine line, and
// leaves the scenario itself untouched.
func TestShardsOverrideOutranksScenario(t *testing.T) {
	x := &ExperimentRun{Shards: 2}
	s := ChaosCrashScenario()
	s.EngineShards = 0 // scenario says serial; the override must win
	m, err := x.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.EngineShards != 0 {
		t.Fatalf("override wrote through to the scenario: engine shards = %d", s.EngineShards)
	}
	pe := m.ParallelEngine()
	if pe == nil || pe.NumShards() != 2 {
		t.Fatalf("override ignored: parallel engine = %v", pe)
	}
	// The parallel engine's lookahead must come from the virtual
	// network's cheapest link.
	if d, ok := m.Grid.Network().MinLinkDelay(); !ok || pe.Lookahead() != d {
		t.Fatalf("lookahead = %v, want min link delay %v (ok=%v)", pe.Lookahead(), d, ok)
	}
}

// TestTraceOverrideOutranksScenario: the -trace* flags
// (ExperimentRun.Trace) outrank a scenario's own trace line, and only a
// traced build has a trace to return.
func TestTraceOverrideOutranksScenario(t *testing.T) {
	s := ChaosCrashScenario()
	plain, err := BuildScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Trace(); ok {
		t.Fatal("untraced build returned a trace")
	}
	netOnly := &scenario.TraceSpec{Mask: trace.CatNet}
	s.Trace = netOnly
	x := &ExperimentRun{Trace: &scenario.TraceSpec{Mask: trace.CatAll}}
	m, err := x.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Eng.Recorder().Enabled(trace.CatProc) {
		t.Fatal("the scenario's trace line outranked the override")
	}
	if s.Trace != netOnly {
		t.Fatal("override wrote through to the scenario")
	}
	if _, ok := m.Trace(); !ok || len(x.Traces()) != 1 {
		t.Fatalf("traced build: Trace ok=%v, %d runs kept", ok, len(x.Traces()))
	}
}
