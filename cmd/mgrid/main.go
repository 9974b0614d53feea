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
	"microgrid/internal/trace"
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
		traceBuf = flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = default 65536, at most 16777216)")
		shards   = flag.Int("shards", 0, "simulation engine: 0 = serial (default), N >= 1 = conservative parallel engine with N shards")
		partArg  = flag.String("partition", "", "partition the grid model across shards: 'auto' or 'node=shard,...' (requires -shards >= 2 or a scenario engine line)")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "error: -shards must be >= 0")
		os.Exit(1)
	}
	x := microgrid.ExperimentRun{Quick: *quick, Shards: *shards}
	if *partArg != "" {
		pc, err := microgrid.ParsePartitionFlag(*partArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		x.Partition = pc
	}

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range microgrid.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Desc)
		}
		return
	}

	if *traceOut != "" {
		mask, err := microgrid.ParseTraceCategories(*traceCat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		x.Trace = &microgrid.ScenarioTrace{Mask: mask, BufSize: *traceBuf}
		if err := x.Trace.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "error: -trace-buf:", err)
			os.Exit(1)
		}
	}

	if *scenFile != "" {
		runScenarioFile(*scenFile, *traceOut, x)
		return
	}

	var tasks []microgrid.CampaignTask
	switch {
	case *all:
		tasks = microgrid.Campaign(x)
	case *runGlob != "":
		for _, t := range microgrid.Campaign(x) {
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
		if _, err := microgrid.GetExperiment(*expID); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, t := range microgrid.Campaign(x) {
			if t.ID == *expID {
				tasks = append(tasks, t)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	// A traced invocation must select exactly one experiment: the export
	// is labeled by build order, which is only deterministic (and
	// therefore byte-identical at any -j) within one experiment.
	if *traceOut != "" && len(tasks) != 1 {
		ids := make([]string, len(tasks))
		for i, t := range tasks {
			ids[i] = t.ID
		}
		fmt.Fprintf(os.Stderr, "error: -trace requires exactly one experiment, but this invocation selects %d: %s\nuse -experiment or a -run glob matching one id\n",
			len(tasks), strings.Join(ids, ", "))
		os.Exit(1)
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

	if *traceOut != "" && len(failed) == 0 {
		exp := results[0].Experiment
		if len(exp.TraceRuns) == 0 {
			fmt.Fprintf(os.Stderr, "error: -trace: experiment %s builds no MicroGrid, so it records no trace\n", exp.ID)
			os.Exit(1)
		}
		writeTrace(*traceOut, exp.TraceRuns)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d experiments failed:\n", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "  %s [%s]: %v\n", r.ID, r.Status, r.Err)
		}
		os.Exit(1)
	}
}

// writeTrace writes trace runs to file: compact JSONL for a .jsonl
// name, Chrome/Perfetto JSON otherwise.
func writeTrace(file string, runs []microgrid.TraceRun) {
	write := trace.WriteChrome
	if strings.HasSuffix(file, ".jsonl") {
		write = trace.WriteJSONL
	}
	f, err := os.Create(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error writing trace:", err)
		os.Exit(1)
	}
	werr := write(f, runs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "error writing trace:", werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", file)
}

// runScenarioFile loads a declarative scenario and runs it end to end
// as a one-arm experiment: parse, validate, build the virtual grid
// (arming any chaos schedule) under the flags' engine and trace choices,
// which outrank the scenario's own lines, run the workload, and print a
// deterministic report. A non-empty traceOut receives the run's trace.
func runScenarioFile(file, traceOut string, x microgrid.ExperimentRun) {
	s, err := microgrid.LoadScenario(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// Relative references inside the scenario (a gis file= path) resolve
	// against the scenario file's own directory.
	m, err := x.BuildEnv(s, microgrid.ScenarioEnv{BaseDir: filepath.Dir(file)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	report, err := m.RunWorkload(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// The same formatter renders mgridd's stdout artifact, so the CLI
	// and the service can never drift apart.
	fmt.Print(microgrid.FormatScenarioReport(s.Name, report))
	if traceOut != "" {
		writeTrace(traceOut, x.Traces())
	}
}
