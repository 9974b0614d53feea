package oracle

import (
	"bytes"
	"fmt"
	"reflect"

	"microgrid/internal/chaos"
	"microgrid/internal/core"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/scengen"
	"microgrid/internal/trace"
)

// RunArtifacts is everything one simulation variant leaves behind for
// checking.
type RunArtifacts struct {
	// Variant labels the engine choice ("serial", "shards=2",
	// "shards=2+auto", "flow").
	Variant string
	// Err is the run failure, if any (all other fields may be partial).
	Err error
	// Report is the completed run's report.
	Report *core.Report
	// ReportText is the rendered scenario report.
	ReportText string
	// Timeline is the fired chaos timeline; TimelineText its rendering.
	Timeline     []chaos.TimelineEntry
	TimelineText string
	// Trace is the canonical merged trace; TraceJSONL its export.
	Trace      trace.Run
	TraceJSONL []byte
	// Total and LinkDirs are the network counters at quiescence.
	Total    netsim.NetStats
	LinkDirs []netsim.DirectionStats
}

// RunVariant executes the scenario under one engine choice, with
// per-instance full tracing (CatEngine excluded: its dispatch telemetry
// is legitimately shard-dependent), and captures every artifact the
// oracle checks. It never mutates s. With auto set, cluster
// partitioning is applied — the scenario's own explicit `partition map`
// when it drew one, automatic placement otherwise — so generated
// placement draws are actually exercised, not overridden.
func RunVariant(s *scenario.Scenario, label string, shards int, auto, flow bool) *RunArtifacts {
	out := &RunArtifacts{Variant: label}
	sc := *s
	sc.EngineShards = shards
	sc.Partition = nil
	if auto {
		if s.Partition != nil && len(s.Partition.Assign) > 0 {
			sc.Partition = s.Partition
		} else {
			sc.Partition = &scenario.PartitionSpec{Auto: true}
		}
	}
	sc.FlowNetwork = flow
	// A generous ring: a dropped event is itself a violation
	// (trace-complete), so the buffer must not be the limiting factor.
	// Its slots are allocated as records arrive, so a generated
	// workload, which stays small, pays only for the records it emits.
	sc.Trace = &scenario.TraceSpec{Mask: trace.CatAll &^ trace.CatEngine, BufSize: 1 << 20}
	m, err := core.BuildScenarioEnv(&sc, core.ScenarioEnv{})
	if err != nil {
		out.Err = fmt.Errorf("build: %w", err)
		return out
	}
	rep, rerr := m.RunWorkload(&sc)
	out.Trace, _ = m.Trace()
	var jb bytes.Buffer
	if err := trace.WriteJSONL(&jb, []trace.Run{out.Trace}); err == nil {
		out.TraceJSONL = jb.Bytes()
	}
	out.Timeline = m.ChaosTimeline()
	out.TimelineText = chaos.FormatTimeline(out.Timeline)
	nw := m.Grid.Network()
	out.Total = nw.TotalStats()
	for _, l := range nw.Links() {
		st := l.Stats()
		out.LinkDirs = append(out.LinkDirs, st[0], st[1])
	}
	if rerr != nil {
		out.Err = rerr
		return out
	}
	out.Report = rep
	out.ReportText = core.FormatScenarioReport(sc.Name, rep)
	return out
}

// SeedResult is one seed's complete verdict.
type SeedResult struct {
	Seed       int64
	Scenario   *scenario.Scenario
	Meta       *scengen.Meta
	Text       string
	Variants   []*RunArtifacts
	Violations []Violation
}

// Failed reports whether any property was violated.
func (r *SeedResult) Failed() bool { return len(r.Violations) > 0 }

func (r *SeedResult) violate(prop, variant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Property: prop, Variant: variant, Detail: fmt.Sprintf(format, args...),
	})
}

// CheckSeed generates the seed's scenario and verifies every applicable
// property: text round-trip, per-run invariants on each engine variant,
// cross-variant byte identity, and (on fault-free, loss-free draws) the
// flow-vs-packet envelope.
func CheckSeed(seed int64, opts scengen.Options) *SeedResult {
	s, meta := scengen.Generate(seed, opts)
	r := &SeedResult{Seed: seed, Scenario: s, Meta: meta, Text: s.String()}

	// Round trip: the canonical text must reparse to the same bytes.
	parsed, err := scenario.ParseString(r.Text)
	if err != nil {
		r.violate(PropRoundTrip, "", "generated text does not parse: %v", err)
		return r
	}
	if got := parsed.String(); got != r.Text {
		r.violate(PropRoundTrip, "", "serialize(parse(text)) != text")
		return r
	}

	// Engine variants: serial, sharded, and (the topologies are always
	// multi-cluster) sharded with automatic cluster partitioning.
	shards := s.EngineShards
	if shards < 2 {
		shards = 2
	}
	placement := "auto"
	if s.Partition != nil && len(s.Partition.Assign) > 0 {
		placement = "map"
	}
	serial := RunVariant(s, "serial", 0, false, false)
	sharded := RunVariant(s, fmt.Sprintf("shards=%d", shards), shards, false, false)
	parted := RunVariant(s, fmt.Sprintf("shards=%d+%s", shards, placement), shards, true, false)
	r.Variants = []*RunArtifacts{serial, sharded, parted}

	for _, v := range r.Variants {
		if v.Err != nil {
			r.violate(PropRunCompletes, v.Variant, "%v", v.Err)
			continue
		}
		for _, viol := range CheckTrace(v.Trace) {
			viol.Variant = v.Variant
			r.Violations = append(r.Violations, viol)
		}
		for _, viol := range CheckConservation(v.Total, v.LinkDirs) {
			viol.Variant = v.Variant
			r.Violations = append(r.Violations, viol)
		}
		attempts := 0
		if v.Report != nil {
			attempts = v.Report.Attempts
		}
		for _, viol := range CheckRetryTermination(v.Trace, s.Retry, attempts) {
			viol.Variant = v.Variant
			r.Violations = append(r.Violations, viol)
		}
		for _, viol := range CheckChaosBounds(s.Chaos, v.Timeline) {
			viol.Variant = v.Variant
			r.Violations = append(r.Violations, viol)
		}
	}

	// Metamorphic identity: all three engine choices must emit
	// byte-identical artifacts.
	if serial.Err == nil {
		for _, other := range []*RunArtifacts{sharded, parted} {
			if other.Err != nil {
				continue
			}
			r.Violations = append(r.Violations, CompareVariants(serial, other)...)
		}
	}

	// Flow-vs-packet envelope, on draws where both modes model the same
	// fault-free run.
	if meta.FlowSafe && serial.Err == nil && serial.Report != nil {
		flow := RunVariant(s, "flow", 0, false, true)
		r.Variants = append(r.Variants, flow)
		if flow.Err != nil {
			r.violate(PropRunCompletes, flow.Variant, "%v", flow.Err)
		} else if flow.Report != nil {
			env, eerr := ScenarioEnvelope(s)
			if eerr != nil {
				r.violate(PropFlowEnvelope, flow.Variant, "deriving envelope: %v", eerr)
			} else {
				for _, viol := range CheckEnvelope(
					serial.Report.VirtualElapsed.Seconds(),
					flow.Report.VirtualElapsed.Seconds(), env) {
					viol.Variant = flow.Variant
					r.Violations = append(r.Violations, viol)
				}
			}
		}
	}
	return r
}

// CompareVariants checks the metamorphic byte-identity of two runs of
// the same scenario under different engine choices.
func CompareVariants(base, other *RunArtifacts) []Violation {
	var out []Violation
	mism := func(what string) {
		out = append(out, Violation{
			Property: PropMetamorphicIdentity,
			Variant:  other.Variant,
			Detail:   fmt.Sprintf("%s differs from %s", what, base.Variant),
		})
	}
	if base.ReportText != other.ReportText {
		mism("report text")
	}
	if base.TimelineText != other.TimelineText {
		mism("chaos timeline")
	}
	if !bytes.Equal(base.TraceJSONL, other.TraceJSONL) {
		mism("canonical trace JSONL")
	}
	if base.Report != nil && other.Report != nil && !reflect.DeepEqual(base.Report, other.Report) {
		mism("report struct")
	}
	return out
}
