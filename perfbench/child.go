package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"microgrid/internal/core"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// Child modes: each child process performs exactly one run of one
// workload, so its peak RSS belongs to that run alone.
const (
	modePlain   = "plain"   // timed run, tracing off
	modeProfile = "profile" // CPU profile attributed to layers, plus inclusive probes
	modeCount   = "count"   // untimed run with a trace sink counting events by category
	modeSerial  = "serial"  // untimed run on the serial engine (partition twin)
)

// childResult is what one child reports to the parent, as one JSON line.
type childResult struct {
	Err string `json:",omitempty"`

	SetupS, ParseS, BuildS, RunS float64
	AllocBytes                   uint64
	// PeakRSS is the process's peak resident set in bytes, read right
	// after the run so the benchmark's own digest work is not in it.
	PeakRSS int64
	CPUS    float64

	ReportDigest, TraceDigest string
	Attempts                  int

	Events, Windows, CrossEvents int64
	Shards                       int
	Packets, Drops, Bytes        int64
	RouteBytes                   int64
	HostsDeclared, HostsLive     int
	GCCycles                     uint64
	GCCPUS                       float64
	ClustersS, RoutesS           float64
	Samples                      map[string]int64 `json:",omitempty"`
	TotalSamples, SamplePeriodNS int64
	Categories                   map[string]uint64 `json:",omitempty"`
	Emitted, Dropped             uint64
}

// runChild performs one run of text under mode.
func runChild(text, mode string) *childResult {
	res := &childResult{}
	if err := runChildInto(res, text, mode); err != nil {
		res.Err = err.Error()
	}
	return res
}

func runChildInto(res *childResult, text, mode string) error {
	var prof bytes.Buffer
	if mode == modeProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	s, m, err := setup(res, text, mode)
	if err != nil {
		if mode == modeProfile {
			pprof.StopCPUProfile()
		}
		return err
	}
	mergeCounts := func() {}
	if mode == modeCount {
		mergeCounts = armCounting(res, m)
	}

	before := readRuntime()
	cpu0 := processCPU()
	t0 := time.Now()
	var rep *core.Report
	var rerr error
	labeled("run", func() { rep, rerr = m.RunWorkload(s) })
	res.RunS = time.Since(t0).Seconds()
	res.CPUS = processCPU() - cpu0
	res.PeakRSS = peakRSS()
	after := readRuntime()
	mergeCounts()
	if mode == modeProfile {
		pprof.StopCPUProfile()
	}
	res.AllocBytes += after.allocs - before.allocs
	res.GCCycles += after.gcCycles - before.gcCycles
	res.GCCPUS += after.gcCPU - before.gcCPU
	if rerr != nil {
		return fmt.Errorf("run: %w", rerr)
	}

	res.ReportDigest = sha(core.FormatScenarioReport(s.Name, rep))
	res.Attempts = rep.Attempts
	res.Packets = rep.Net.PacketsDelivered
	res.Drops = rep.Net.PacketsDropped
	res.Bytes = rep.Net.BytesDelivered
	res.HostsDeclared = m.Grid.DeclaredHosts()
	res.HostsLive = m.Grid.MaterializedCount()
	nw := m.Grid.Network()
	res.RouteBytes = nw.RouteStateBytes()
	if pe := m.ParallelEngine(); pe != nil {
		res.Shards = pe.NumShards()
		res.Windows = pe.Windows()
		res.CrossEvents = pe.CrossEvents()
	}
	for _, e := range engines(m) {
		res.Events += e.Dispatched()
	}
	if tr, ok := canonicalTrace(m); ok {
		h := sha256.New()
		if err := trace.WriteJSONL(h, []trace.Run{tr}); err != nil {
			return err
		}
		res.TraceDigest = hex.EncodeToString(h.Sum(nil))
		res.Emitted, res.Dropped = tr.Emitted, tr.Dropped
	}

	if mode == modeProfile {
		if err := attributeProfile(res, prof.Bytes()); err != nil {
			return err
		}
		res.ClustersS, res.RoutesS = routingProbes(nw, m.Hosts)
	}
	return nil
}

// setup parses and builds the scenario once. A child never builds a
// second model: a built model that is never run keeps its goroutines and
// heap alive, which would inflate the run's memory and GC figures.
func setup(res *childResult, text, mode string) (*scenario.Scenario, *core.MicroGrid, error) {
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	var s *scenario.Scenario
	var err error
	labeled("parse", func() { s, err = scenario.ParseString(text) })
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	if mode == modeSerial {
		s.EngineShards, s.Partition = 0, nil
	}
	if mode == modeCount && s.Trace == nil {
		s.Trace = &scenario.TraceSpec{Mask: trace.CatAll}
	}
	parsed := time.Now()
	var m *core.MicroGrid
	labeled("build", func() { m, err = core.BuildScenarioEnv(s, core.ScenarioEnv{}) })
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	built := time.Now()
	after := readRuntime()
	res.SetupS, res.ParseS, res.BuildS = built.Sub(start).Seconds(), parsed.Sub(start).Seconds(), built.Sub(parsed).Seconds()
	res.AllocBytes = after.allocs - before.allocs
	res.GCCycles = after.gcCycles - before.gcCycles
	res.GCCPUS = after.gcCPU - before.gcCPU
	return s, m, nil
}

// labeled runs fn under a pprof "phase" label, so profile samples of the
// benchmark's own parse, build and run calls carry the phase they belong
// to.
func labeled(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

// canonicalTrace returns the model's merged, canonical trace when the
// scenario armed a recorder.
func canonicalTrace(m *core.MicroGrid) (trace.Run, bool) {
	if pe := m.ParallelEngine(); pe != nil {
		if pe.Shard(0).Recorder() == nil {
			return trace.Run{}, false
		}
		return pe.MergedTrace(), true
	}
	rec := m.Eng.Recorder()
	if rec == nil {
		return trace.Run{}, false
	}
	return trace.MergeRuns([]trace.Run{rec.Snapshot()}), true
}

// engines lists the engines the model runs on: the serial engine, or
// every shard of the parallel one.
func engines(m *core.MicroGrid) []*simcore.Engine {
	pe := m.ParallelEngine()
	if pe == nil {
		return []*simcore.Engine{m.Eng}
	}
	out := make([]*simcore.Engine, pe.NumShards())
	for i := range out {
		out[i] = pe.Shard(i)
	}
	return out
}

// armCounting installs a sink on every engine's recorder that counts
// emitted events by category. Shards run concurrently, so each recorder
// counts into its own map; the returned function merges them into res
// once the run is over.
func armCounting(res *childResult, m *core.MicroGrid) (merge func()) {
	var counts []map[string]uint64
	for _, e := range engines(m) {
		c := map[string]uint64{}
		counts = append(counts, c)
		if rec := e.Recorder(); rec != nil {
			rec.SetSink(func(ev trace.Event) { c[ev.Cat.String()]++ })
		}
	}
	return func() {
		res.Categories = map[string]uint64{}
		for _, c := range counts {
			for cat, n := range c {
				res.Categories[cat] += n
			}
		}
	}
}

// routingProbes times two public netsim calls on the finished model:
// cluster detection, and a routing rebuild followed by a next-hop walk
// between every pair of the first 16 rank hosts.
func routingProbes(nw *netsim.Network, hosts []string) (clustersS, routesS float64) {
	t0 := time.Now()
	nw.Clusters(0)
	clustersS = time.Since(t0).Seconds()

	var nodes []*netsim.Node
	for _, h := range hosts {
		if len(nodes) == 16 {
			break
		}
		if nd := nw.Node(h); nd != nil {
			nodes = append(nodes, nd)
		}
	}
	t0 = time.Now()
	nw.ComputeRoutes()
	for _, src := range nodes {
		for _, dst := range nodes {
			for cur, hops := src, 0; cur != dst && hops < 64; hops++ {
				next := nw.Node(nw.NextHopName(cur, dst))
				if next == nil {
					break
				}
				cur = next
			}
		}
	}
	routesS = time.Since(t0).Seconds()
	return clustersS, routesS
}

type runtimeStats struct {
	allocs, gcCycles uint64
	gcCPU            float64
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeStats{
		allocs:   samples[0].Value.Uint64(),
		gcCycles: samples[1].Value.Uint64(),
		gcCPU:    samples[2].Value.Float64(),
	}
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
