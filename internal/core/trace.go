package core

import (
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// attachRecorders wires tracing for one build from its trace spec (nil
// traces nothing): one recorder per engine the model spans — shard 0
// only, or every shard when partitioned — labeled with the config name.
// Partitioned builds drop CatEngine; see scenario.TraceSpec.Mask. Mask 0
// records every category.
func attachRecorders(eng *simcore.Engine, par *simcore.ParallelEngine, plan *partitionPlan, tc *scenario.TraceSpec, configName string) []*trace.Recorder {
	if tc == nil {
		return nil
	}
	engines := []*simcore.Engine{eng}
	strip := trace.Category(0)
	if plan != nil {
		strip = trace.CatEngine
		engines = engines[:0]
		for i := 0; i < par.NumShards(); i++ {
			engines = append(engines, par.Shard(i))
		}
	}
	mask := tc.Mask
	if mask == 0 {
		mask = trace.CatAll
	}
	recs := make([]*trace.Recorder, len(engines))
	for i, e := range engines {
		recs[i] = trace.NewRecorder(tc.BufSize, mask&^strip)
		recs[i].Label = configName
		e.SetRecorder(recs[i])
	}
	return recs
}

// Trace returns this instance's trace, false when its build attached no
// recorder: every engine's recorder merged and canonicalized into one
// Run, so the bytes are independent of how the model was partitioned.
func (m *MicroGrid) Trace() (trace.Run, bool) {
	if len(m.recs) == 0 {
		return trace.Run{}, false
	}
	return mergeRecorders(m.recs), true
}

// mergeRecorders snapshots one build's recorders into its canonical Run.
func mergeRecorders(recs []*trace.Recorder) trace.Run {
	parts := make([]trace.Run, len(recs))
	for i, r := range recs {
		parts[i] = r.Snapshot()
	}
	return trace.MergeRuns(parts)
}
