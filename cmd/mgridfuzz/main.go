// Command mgridfuzz drives the differential/metamorphic fuzzing loop:
// for each seed it generates a random-but-valid scenario
// (internal/scengen), runs it under the serial, sharded, and
// auto-partitioned engines (plus the flow-level network model when the
// draw is fault-free), and checks every oracle property
// (internal/oracle) — trace completeness, packet conservation, retry
// termination, chaos schedule bounds, cross-engine byte identity, and
// the flow-vs-packet envelope.
//
// Usage:
//
//	mgridfuzz -seeds 0:50 -quick            # CI range, small workload knobs
//	mgridfuzz -seeds 100:200 -j 8           # wider sweep, 8 seeds in flight
//	mgridfuzz -seeds 7:8 -v                 # one seed, print its scenario
//
// The seed range is half-open (a:b runs a..b-1). The summary is
// deterministic for a given range regardless of -j. On any violation
// the process exits 1 and leaves a repro bundle per failing seed under
// -out (scenario text, violations, and each variant's report, chaos
// timeline, and trace JSONL) so the failure replays without the fuzzer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"microgrid/internal/oracle"
	"microgrid/internal/scengen"
)

func main() {
	var (
		seeds   = flag.String("seeds", "0:20", "half-open seed range a:b")
		jobs    = flag.Int("j", runtime.NumCPU(), "seeds checked concurrently")
		quick   = flag.Bool("quick", false, "smaller workload knobs (CI)")
		outDir  = flag.String("out", "fuzz-failures", "repro bundle directory")
		verbose = flag.Bool("v", false, "print each generated scenario")
	)
	flag.Parse()

	lo, hi, err := parseRange(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	opts := scengen.Options{Quick: *quick}

	// Workers hand back each seed's formatted lines; the main goroutine
	// prints them in seed order as soon as every lower seed is printed,
	// and drops them then. Only a failing seed keeps its full result, for
	// its repro bundle, so memory is bounded by the seeds in flight and
	// those finished ahead of a slow one, not by the range.
	if *jobs < 1 {
		*jobs = 1
	}
	work := make(chan int64)
	done := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < *jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				done <- check(seed, opts, *verbose)
			}
		}()
	}
	go func() {
		for seed := lo; seed < hi; seed++ {
			work <- seed
		}
		close(work)
		wg.Wait()
		close(done)
	}()

	failed := 0
	pending := make(map[int64]outcome)
	next := lo
	for o := range done {
		pending[o.seed] = o
		for p, ok := pending[next]; ok; p, ok = pending[next] {
			delete(pending, next)
			next++
			fmt.Print(p.text)
			if p.fail == nil {
				continue
			}
			failed++
			if err := writeBundle(*outDir, p.fail); err != nil {
				fmt.Fprintf(os.Stderr, "error: repro bundle for seed %d: %v\n", p.seed, err)
			}
		}
	}
	fmt.Printf("%d seeds, %d failed\n", hi-lo, failed)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "repro bundles under %s/\n", *outDir)
		os.Exit(1)
	}
}

// outcome is one checked seed: its stdout lines, and its full result
// when it failed.
type outcome struct {
	seed int64
	text string
	fail *oracle.SeedResult
}

// check runs the oracle on one seed and formats its lines.
func check(seed int64, opts scengen.Options, verbose bool) outcome {
	r := oracle.CheckSeed(seed, opts)
	status := "pass"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %4d  %-8s %-9s chaos=%-7s engine=%-12s %s\n",
		r.Seed, r.Scenario.Workload.Kind, r.Meta.Family,
		orDash(r.Meta.ChaosFlavor), engineLabel(r), status)
	if verbose {
		fmt.Fprintln(&b, indent(r.Text))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    %s\n", v)
	}
	o := outcome{seed: seed, text: b.String()}
	if r.Failed() {
		o.fail = r
	}
	return o
}

func parseRange(s string) (lo, hi int64, err error) {
	if _, err = fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q (want a:b)", s)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("bad -seeds %q (want 0 <= a < b)", s)
	}
	return lo, hi, nil
}

func engineLabel(r *oracle.SeedResult) string {
	s := r.Scenario
	switch {
	case s.EngineShards == 0:
		return "serial"
	case s.Partition != nil:
		return fmt.Sprintf("shards=%d+auto", s.EngineShards)
	default:
		return fmt.Sprintf("shards=%d", s.EngineShards)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

// writeBundle leaves everything needed to replay the failure:
// the scenario (runnable via mgrid -scenario), the violation list, and
// each variant's captured artifacts.
func writeBundle(dir string, r *oracle.SeedResult) error {
	bd := filepath.Join(dir, fmt.Sprintf("seed-%d", r.Seed))
	if err := os.MkdirAll(bd, 0o755); err != nil {
		return err
	}
	write := func(name, data string) error {
		return os.WriteFile(filepath.Join(bd, name), []byte(data), 0o644)
	}
	if err := write("scenario.scenario", r.Text); err != nil {
		return err
	}
	var vb strings.Builder
	for _, v := range r.Violations {
		fmt.Fprintln(&vb, v)
	}
	if err := write("violations.txt", vb.String()); err != nil {
		return err
	}
	for _, v := range r.Variants {
		name := strings.NewReplacer("=", "", "+", "-").Replace(v.Variant)
		if v.Err != nil {
			if err := write(name+".error.txt", v.Err.Error()+"\n"); err != nil {
				return err
			}
			continue
		}
		if err := write(name+".report.txt", v.ReportText); err != nil {
			return err
		}
		if v.TimelineText != "" {
			if err := write(name+".timeline.txt", v.TimelineText); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(bd, name+".trace.jsonl"), v.TraceJSONL, 0o644); err != nil {
			return err
		}
	}
	return nil
}
