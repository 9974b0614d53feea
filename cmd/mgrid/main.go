// Command mgrid runs the paper's experiments: every table and figure of
// the MicroGrid evaluation, printed as text tables.
//
// Usage:
//
//	mgrid -list
//	mgrid -experiment fig10              # full (paper-scale) run
//	mgrid -experiment fig10 -quick       # reduced problem sizes
//	mgrid -all -quick -j 8               # whole campaign, 8 workers
//	mgrid -all -quick -out results/      # + campaign.json, timings.csv
//	mgrid -run 'chaos-*' -quick -j 4     # glob-selected sub-campaign
//	mgrid -scenario my.scenario          # run a declarative scenario file
//	mgrid -scenario my.scenario -trace t.jsonl  # ... and write its trace
//
// Experiments run on a bounded worker pool (-j), each in its own
// isolated simulation engine, with an optional per-experiment wall-clock
// timeout (-timeout) and one retry on failure. Tables and metrics on
// stdout are deterministic — byte-identical for any -j — and always in
// paper order; progress lines with wall-clock times go to stderr. With
// -all, a failing experiment no longer aborts the run: every experiment
// executes, failures are summarized at the end, and the exit status is
// nonzero if any failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"microgrid"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		expID    = flag.String("experiment", "", "experiment id to run (fig05..fig17)")
		all      = flag.Bool("all", false, "run every experiment")
		runGlob  = flag.String("run", "", "run experiments whose id matches this glob (e.g. 'chaos-*')")
		scenFile = flag.String("scenario", "", "run a declarative .scenario file end to end")
		quick    = flag.Bool("quick", false, "reduced problem sizes for fast runs")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of text")
		jobs     = flag.Int("j", 1, "number of experiments to run concurrently")
		timeout  = flag.Duration("timeout", 0, "per-experiment wall-clock timeout (0 = none)")
		outDir   = flag.String("out", "", "directory for campaign.json and timings.csv artifacts")
		traceOut = flag.String("trace", "", "write a structured trace of the experiment or scenario (.jsonl = compact stream, anything else = Chrome/Perfetto JSON)")
		traceCat = flag.String("trace-categories", "all", "trace categories, e.g. 'net,mpi' or 'all,-engine'")
		traceBuf = flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = default 65536)")
		shards   = flag.Int("shards", 0, "simulation engine: 0 = serial (default), N >= 1 = conservative parallel engine with N shards")
		partArg  = flag.String("partition", "", "partition the grid model across shards: 'auto' or 'node=shard,...' (requires -shards >= 2 or a scenario engine line)")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "error: -shards must be >= 0")
		os.Exit(1)
	}
	if *shards > 0 {
		microgrid.SetEngineShards(*shards)
	}
	if *partArg != "" {
		pc, err := microgrid.ParsePartitionFlag(*partArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		microgrid.SetEnginePartition(pc)
	}

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range microgrid.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Desc)
		}
		return
	}

	if *scenFile != "" {
		runScenarioFile(*scenFile, *traceOut, *traceCat, *traceBuf)
		return
	}

	var tasks []microgrid.CampaignTask
	switch {
	case *all:
		tasks = microgrid.Campaign(*quick)
	case *runGlob != "":
		for _, t := range microgrid.Campaign(*quick) {
			ok, err := path.Match(*runGlob, t.ID)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error: bad -run pattern:", err)
				os.Exit(1)
			}
			if ok {
				tasks = append(tasks, t)
			}
		}
		if len(tasks) == 0 {
			fmt.Fprintf(os.Stderr, "error: -run %q matches no experiments\n", *runGlob)
			os.Exit(1)
		}
	case *expID != "":
		fn, err := microgrid.GetExperiment(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		q := *quick
		tasks = []microgrid.CampaignTask{{
			ID: *expID,
			Run: func(ctx context.Context) (*microgrid.Experiment, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return fn(q)
			},
		}}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		// A traced invocation must select exactly one experiment: the
		// export is labeled by build order, which is only deterministic
		// (and therefore byte-identical at any -j) within one experiment.
		if len(tasks) != 1 {
			ids := make([]string, len(tasks))
			for i, t := range tasks {
				ids[i] = t.ID
			}
			fmt.Fprintf(os.Stderr, "error: -trace requires exactly one experiment, but this invocation selects %d: %s\nuse -experiment or a -run glob matching one id\n",
				len(tasks), strings.Join(ids, ", "))
			os.Exit(1)
		}
		enableTracing(*traceCat, *traceBuf)
	}

	results := microgrid.RunCampaign(context.Background(), tasks, microgrid.CampaignOptions{
		Workers: *jobs,
		Timeout: *timeout,
		OnResult: func(r microgrid.CampaignResult) {
			fmt.Fprintf(os.Stderr, "[%s] %s (wall %.1fs, attempts %d)\n",
				r.Status, r.ID, r.Wall.Seconds(), r.Attempts)
		},
	})

	// Deterministic report: paper order, no wall-clock times.
	var failed []microgrid.CampaignResult
	for _, r := range results {
		if r.Status != microgrid.CampaignOK {
			failed = append(failed, r)
			continue
		}
		exp := r.Experiment
		if *csv {
			fmt.Printf("# %s — %s\n", exp.ID, exp.Title)
			fmt.Print(exp.Table.CSV())
			fmt.Println()
			continue
		}
		fmt.Printf("=== %s — %s\n", exp.ID, exp.Title)
		fmt.Print(exp.Table.String())
		for _, n := range exp.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		fmt.Println()
	}

	if *outDir != "" {
		if err := microgrid.WriteCampaignArtifacts(*outDir, results, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "error writing artifacts:", err)
			os.Exit(1)
		}
	}

	if *traceOut != "" {
		writeTrace(*traceOut)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d experiments failed:\n", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "  %s [%s]: %v\n", r.ID, r.Status, r.Err)
		}
		os.Exit(1)
	}
}

// enableTracing arms global tracing for every grid built afterwards,
// from the -trace-categories and -trace-buf flags.
func enableTracing(categories string, bufSize int) {
	mask, err := microgrid.ParseTraceCategories(categories)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	microgrid.EnableTracing(microgrid.TraceConfig{Mask: mask, BufSize: bufSize})
}

// writeTrace writes the collected trace to file: compact JSONL for a
// .jsonl name, Chrome/Perfetto JSON otherwise.
func writeTrace(file string) {
	write := microgrid.WriteTraceChrome
	if strings.HasSuffix(file, ".jsonl") {
		write = microgrid.WriteTraceJSONL
	}
	f, err := os.Create(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error writing trace:", err)
		os.Exit(1)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "error writing trace:", werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", file)
}

// runScenarioFile loads a declarative scenario and runs it end to end:
// parse, validate, build the virtual grid (arming any chaos schedule),
// run the workload, and print a deterministic report. A non-empty
// traceOut traces the run with the -trace-* flags, which outrank the
// scenario's own trace line, and writes the trace there.
func runScenarioFile(file, traceOut, traceCat string, traceBuf int) {
	s, err := microgrid.LoadScenario(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if traceOut != "" {
		s.Trace = nil
		enableTracing(traceCat, traceBuf)
	}
	// Relative references inside the scenario (a gis file= path) resolve
	// against the scenario file's own directory.
	report, err := microgrid.RunScenarioEnv(s, microgrid.ScenarioEnv{BaseDir: filepath.Dir(file)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// The same formatter renders mgridd's stdout artifact, so the CLI
	// and the service can never drift apart.
	fmt.Print(microgrid.FormatScenarioReport(s.Name, report))
	if traceOut != "" {
		writeTrace(traceOut)
	}
}
