package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Global tracing: cmd/mgrid's -trace flags arm this once before the
// campaign runs, and every MicroGrid Built afterwards gets its own
// recorder group — one recorder per engine the model spans, merged and
// canonicalized at export — labeled by build order. Labels are assigned
// under a lock but the *contents* of each recorder are produced by its
// own engine, so exports are deterministic whenever the set of builds is
// — which is why traced campaigns are restricted to one experiment.

type traceGroup struct {
	label string
	recs  []*trace.Recorder
}

var (
	traceMu     sync.Mutex
	traceCfg    *scenario.TraceSpec
	traceGroups []traceGroup
)

// EnableTracing arms global tracing for all subsequent Builds.
func EnableTracing(cfg scenario.TraceSpec) {
	traceMu.Lock()
	defer traceMu.Unlock()
	c := cfg
	traceCfg = &c
	traceGroups = nil
}

// TracingEnabled reports whether global tracing is armed.
func TracingEnabled() bool {
	traceMu.Lock()
	defer traceMu.Unlock()
	return traceCfg != nil
}

// ResetTracing disarms global tracing and drops collected recorders.
func ResetTracing() {
	traceMu.Lock()
	defer traceMu.Unlock()
	traceCfg = nil
	traceGroups = nil
}

// newGlobalRecorders hands out the next recorder group when global
// tracing is armed (nil otherwise): n recorders sharing one label, which
// carries the build ordinal so exports sort into build order.
func newGlobalRecorders(configName string, n int, strip trace.Category) []*trace.Recorder {
	traceMu.Lock()
	defer traceMu.Unlock()
	if traceCfg == nil {
		return nil
	}
	label := fmt.Sprintf("%02d:%s", len(traceGroups), configName)
	recs := make([]*trace.Recorder, n)
	for i := range recs {
		recs[i] = newRecorder(traceCfg, strip, label)
	}
	traceGroups = append(traceGroups, traceGroup{label: label, recs: recs})
	return recs
}

// newRecorder makes one recorder for a trace spec: Mask 0 records every
// category (see scenario.TraceSpec), less the strip set.
func newRecorder(tc *scenario.TraceSpec, strip trace.Category, label string) *trace.Recorder {
	mask := tc.Mask
	if mask == 0 {
		mask = trace.CatAll
	}
	r := trace.NewRecorder(tc.BufSize, mask&^strip)
	r.Label = label
	return r
}

// attachRecorders wires tracing for one build: one recorder per engine
// the model spans (shard 0 only, or every shard when partitioned), from
// the explicit spec if given, else from the global switch. Partitioned
// builds drop CatEngine — see scenario.TraceSpec.Mask.
func attachRecorders(eng *simcore.Engine, par *simcore.ParallelEngine, plan *partitionPlan, tc *scenario.TraceSpec, configName string) {
	engines := []*simcore.Engine{eng}
	strip := trace.Category(0)
	if plan != nil {
		strip = trace.CatEngine
		engines = engines[:0]
		for i := 0; i < par.NumShards(); i++ {
			engines = append(engines, par.Shard(i))
		}
	}
	if tc != nil {
		for _, e := range engines {
			e.SetRecorder(newRecorder(tc, strip, configName))
		}
		return
	}
	for i, r := range newGlobalRecorders(configName, len(engines), strip) {
		engines[i].SetRecorder(r)
	}
}

// TraceSnapshots returns every build's trace, in build order: each
// group's recorders are merged and canonicalized into one Run, so the
// bytes are independent of how the model was partitioned.
func TraceSnapshots() []trace.Run {
	traceMu.Lock()
	defer traceMu.Unlock()
	runs := make([]trace.Run, 0, len(traceGroups))
	for _, g := range traceGroups {
		parts := make([]trace.Run, 0, len(g.recs))
		for _, r := range g.recs {
			parts = append(parts, r.Snapshot())
		}
		runs = append(runs, trace.MergeRuns(parts))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// WriteTraceJSONL writes the collected runs as compact JSONL.
func WriteTraceJSONL(w io.Writer) error { return trace.WriteJSONL(w, TraceSnapshots()) }

// WriteTraceChrome writes the collected runs as Chrome trace-event JSON
// (Perfetto / chrome://tracing).
func WriteTraceChrome(w io.Writer) error { return trace.WriteChrome(w, TraceSnapshots()) }
