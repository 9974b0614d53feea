// Command perfbench is the MicroGrid's layer-attributed benchmark. It
// runs one named workload for a fixed measuring time and prints, as the
// last line of its output, one JSON object: whether every run passed the
// correctness gate, how many runs were attempted and failed, and the
// metrics — end-to-end with -trace 0, per layer with -trace 1.
//
// Every measured run is a child process of this one (the same binary
// re-executed with -child) that sets up and runs one model, so each
// run's peak RSS is its own.
//
//	perfbench -workload npb-bt-a -seed 1 -seconds 25 -trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// deadline bounds one invocation; children still running at it are
// killed and the invocation reports failure.
const deadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed (enters each scenario's seed line)")
	seconds := flag.Int("seconds", 25, "measuring time in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	child := flag.String("child", "", "internal: run one child of this mode and print its result")
	tiny := flag.Bool("tiny", false, "use the smoke-test sizes of the workloads")
	flag.Parse()

	w := findWorkload(*workload)
	if w == nil || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload <name> and -trace 0 or 1\n")
		os.Exit(2)
	}
	if *child != "" {
		res := runChild(w.scenarioText(*seed, *tiny), *child)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: *seed, tiny: *tiny, measure: time.Duration(*seconds) * time.Second}
	rec, err := record(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Println(string(line))

	var out result
	if *traced == 1 {
		out = b.perLayer()
	} else {
		out = b.endToEnd()
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one invocation's children and applies the correctness gate
// to each.
type bench struct {
	ctx     context.Context
	w       *workload
	seed    int64
	tiny    bool
	measure time.Duration

	attempted, failed int
	// digest and traceDigest are the first run's outputs; every later
	// run must reproduce them.
	digest, traceDigest string
	// twin is the serial-engine report digest for partitioned workloads.
	twin string
}

// child runs one child process and returns its result. Errors
// (including a child that died) are returned as results with Err set.
func (b *bench) child(mode string) *childResult {
	args := []string{"-child", mode, "-workload", b.w.name, "-seed", fmt.Sprint(b.seed)}
	if b.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(b.ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	// A child must not outlive this process, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	res := &childResult{}
	if err != nil {
		res.Err = fmt.Sprintf("child %s: %v", mode, err)
		return res
	}
	if jerr := json.Unmarshal(out, res); jerr != nil {
		res.Err = fmt.Sprintf("child %s: bad result: %v", mode, jerr)
	}
	return res
}

// gate applies the correctness checks to one run, counting it as
// attempted and, if any check fails, as failed.
func (b *bench) gate(r *childResult) bool {
	b.attempted++
	err := b.check(r)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", b.w.name, b.seed, err)
	}
	return err == nil
}

func (b *bench) check(r *childResult) error {
	if r.Err != "" {
		return fmt.Errorf("%s", r.Err)
	}
	if err := b.w.check(r, b.tiny); err != nil {
		return err
	}
	if !b.tiny && (r.ReportDigest != b.w.report || r.TraceDigest != b.w.trace) {
		return fmt.Errorf("report digest %s trace digest %s, want committed %s %s",
			r.ReportDigest, r.TraceDigest, b.w.report, b.w.trace)
	}
	if b.digest == "" {
		b.digest, b.traceDigest = r.ReportDigest, r.TraceDigest
	}
	if r.ReportDigest != b.digest || r.TraceDigest != b.traceDigest {
		return fmt.Errorf("run is not deterministic: report %s trace %s, first run gave %s %s",
			r.ReportDigest, r.TraceDigest, b.digest, b.traceDigest)
	}
	if b.twin != "" && r.ReportDigest != b.twin {
		return fmt.Errorf("report %s differs from the serial engine's %s", r.ReportDigest, b.twin)
	}
	return nil
}

// prelude runs, for a partitioned workload, the untimed serial-engine
// twin whose report every measured run must then match.
func (b *bench) prelude() {
	if !b.w.serialTwin {
		return
	}
	r := b.child(modeSerial)
	b.attempted++
	if r.Err != "" || r.ReportDigest == "" {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s serial twin: %s\n", b.w.name, r.Err)
		return
	}
	b.twin = r.ReportDigest
}

// repeat runs children of mode until the measuring time has passed (at
// least once), gating each; it returns the passing runs.
func (b *bench) repeat(mode string) []*childResult {
	var runs []*childResult
	for start := time.Now(); len(runs) == 0 || time.Since(start) < b.measure; {
		if b.ctx.Err() != nil {
			break
		}
		r := b.child(mode)
		if !b.gate(r) {
			if b.failed > 3 {
				break
			}
			continue
		}
		runs = append(runs, r)
	}
	return runs
}

func (b *bench) finish(m map[string]metric) result {
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   m,
	}
}

// endToEnd measures the workload as a user runs it, tracing off. The
// run is measured in process CPU seconds, not wall seconds: on a virtual
// machine the hypervisor steals CPU time from the guest, which stretches
// wall time by amounts that have nothing to do with the program, while
// CPU time leaves the stolen time out. Wall time is in the per-layer
// ledger as run_s.
func (b *bench) endToEnd() result {
	b.prelude()
	runs := b.repeat(modePlain)
	m := map[string]metric{
		"setup_s":     {medianOf(runs, func(r *childResult) float64 { return r.SetupS }), "s"},
		"run.cpu_s":   {medianOf(runs, func(r *childResult) float64 { return r.CPUS }), "s"},
		"alloc_mb":    {medianOf(runs, func(r *childResult) float64 { return float64(r.AllocBytes) / 1e6 }), "MB"},
		"peak_rss_mb": {medianOf(runs, func(r *childResult) float64 { return float64(r.PeakRSS) / 1e6 }), "MB"},
	}
	return b.finish(m)
}

// perLayer measures the per-layer ledger: CPU-profiled runs attributed
// to layers, one event-counting pass, and the layer probes.
func (b *bench) perLayer() result {
	b.prelude()
	runs := b.repeat(modeProfile)
	m := map[string]metric{}
	med := func(name, unit string, f func(r *childResult) float64) {
		m[name] = metric{medianOf(runs, f), unit}
	}

	// Self CPU time per layer: samples pooled over the profiled runs,
	// reported per run.
	var period float64
	pooled := map[string]int64{}
	for _, r := range runs {
		period = float64(r.SamplePeriodNS) / 1e9
		for l, n := range r.Samples {
			pooled[l] += n
		}
	}
	for _, l := range layers {
		v := 0.0
		if len(runs) > 0 {
			v = float64(pooled[l]) * period / float64(len(runs))
		}
		m[l+".self_s"] = metric{v, "s"}
	}

	med("scenario.parse_s", "s", func(r *childResult) float64 { return r.ParseS })
	med("core.build_s", "s", func(r *childResult) float64 { return r.BuildS })
	med("netsim.clusters_s", "s", func(r *childResult) float64 { return r.ClustersS })
	med("netsim.routes_s", "s", func(r *childResult) float64 { return r.RoutesS })
	med("run_s", "s", func(r *childResult) float64 { return r.RunS })
	med("simcore.events", "count", func(r *childResult) float64 { return float64(r.Events) })
	med("simcore.ns_per_event", "ns", func(r *childResult) float64 { return ratio(r.RunS*1e9, float64(r.Events)) })
	med("pdes.windows", "count", func(r *childResult) float64 { return float64(r.Windows) })
	med("pdes.cross_events", "count", func(r *childResult) float64 { return float64(r.CrossEvents) })
	med("pdes.events_per_window", "count", func(r *childResult) float64 { return ratio(float64(r.Events), float64(r.Windows)) })
	med("pdes.busy_frac", "ratio", func(r *childResult) float64 {
		return ratio(r.CPUS, r.RunS*float64(max(r.Shards, 1)))
	})
	med("netsim.packets", "count", func(r *childResult) float64 { return float64(r.Packets) })
	med("netsim.drops", "count", func(r *childResult) float64 { return float64(r.Drops) })
	med("netsim.bytes", "bytes", func(r *childResult) float64 { return float64(r.Bytes) })
	med("netsim.route_bytes", "bytes", func(r *childResult) float64 { return float64(r.RouteBytes) })
	med("core.hosts_declared", "count", func(r *childResult) float64 { return float64(r.HostsDeclared) })
	med("core.hosts_live", "count", func(r *childResult) float64 { return float64(r.HostsLive) })
	med("globus.attempts", "count", func(r *childResult) float64 { return float64(r.Attempts) })
	med("runtime.gc_cycles", "count", func(r *childResult) float64 { return float64(r.GCCycles) })
	med("runtime.gc_cpu_s", "s", func(r *childResult) float64 { return r.GCCPUS })

	// One untimed counting pass: trace events by category.
	cr := b.child(modeCount)
	b.attempted++
	if cr.Err != "" {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s counting pass: %s\n", b.w.name, cr.Err)
	}
	for name, cat := range categoryMetrics {
		m[name] = metric{float64(cr.Categories[cat]), "count"}
	}
	m["trace.emitted"] = metric{float64(cr.Emitted), "count"}
	m["trace.dropped"] = metric{float64(cr.Dropped), "count"}

	for _, p := range runProbes() {
		m[p.name] = metric{p.value, p.unit}
	}
	m["fail_frac"] = metric{ratio(float64(b.failed), float64(max(b.attempted, 1))), "ratio"}
	return b.finish(m)
}

// categoryMetrics maps the per-category counts to trace category names.
var categoryMetrics = map[string]string{
	"simcore.proc_events": "proc",
	"cpusched.events":     "cpu",
	"mpi.events":          "mpi",
	"globus.events":       "globus",
	"chaos.events":        "chaos",
}

func medianOf(runs []*childResult, f func(*childResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
