package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"microgrid/internal/core"
	"microgrid/internal/metrics"
	"microgrid/internal/simcore"
)

// okTask returns a task producing a small deterministic experiment.
func okTask(id string) Task {
	return Task{ID: id, Run: func(ctx context.Context) (*core.Experiment, error) {
		tbl := metrics.NewTable("t-"+id, "k", "v")
		tbl.AddRow("x", 1.0)
		return &core.Experiment{
			ID:      id,
			Title:   "title " + id,
			Table:   tbl,
			Metrics: map[string]float64{"one": 1},
		}, nil
	}}
}

// TestCampaignParallelMatchesSequential is the determinism gate: every
// registered experiment at quick scale, 8 workers vs 1 worker, must
// agree exactly — same Metrics, same rendered tables, byte-identical
// campaign.json.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	want := len(core.Experiments())
	seq := Run(context.Background(), Campaign(true), Options{Workers: 1})
	par := Run(context.Background(), Campaign(true), Options{Workers: 8})
	if len(seq) != want || len(par) != want {
		t.Fatalf("got %d sequential and %d parallel results, want %d", len(seq), len(par), want)
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.ID != p.ID {
			t.Fatalf("result %d ordering: sequential %s vs parallel %s", i, s.ID, p.ID)
		}
		if s.Status != StatusOK {
			t.Fatalf("%s sequential: %v", s.ID, s.Err)
		}
		if p.Status != StatusOK {
			t.Fatalf("%s parallel: %v", p.ID, p.Err)
		}
		if !reflect.DeepEqual(s.Experiment.Metrics, p.Experiment.Metrics) {
			t.Errorf("%s: metrics differ\nsequential: %v\nparallel:   %v",
				s.ID, s.Experiment.Metrics, p.Experiment.Metrics)
		}
		if s.Experiment.Table.String() != p.Experiment.Table.String() {
			t.Errorf("%s: rendered tables differ", s.ID)
		}
	}
	sj, err := CampaignJSON(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := CampaignJSON(par, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatal("campaign.json differs between -j 1 and -j 8")
	}
}

// TestScenarioPathByteIdenticalJ1J4 is the acceptance gate for the
// scenario refactor: every experiment now constructs its grid through
// the declarative scenario layer, and the full campaign — rendered
// exactly as cmd/mgrid prints it, plus campaign.json — must be
// byte-identical between -j 1 and -j 4.
func TestScenarioPathByteIdenticalJ1J4(t *testing.T) {
	render := func(results []Result) []byte {
		var buf bytes.Buffer
		for _, r := range results {
			if r.Status != StatusOK {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			exp := r.Experiment
			fmt.Fprintf(&buf, "=== %s — %s\n", exp.ID, exp.Title)
			buf.WriteString(exp.Table.String())
			for _, n := range exp.Notes {
				fmt.Fprintf(&buf, "  note: %s\n", n)
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	j1 := Run(context.Background(), Campaign(true), Options{Workers: 1})
	j4 := Run(context.Background(), Campaign(true), Options{Workers: 4})
	s1, s4 := render(j1), render(j4)
	if !bytes.Equal(s1, s4) {
		t.Fatal("rendered stdout differs between -j 1 and -j 4")
	}
	c1, err := CampaignJSON(j1, true)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := CampaignJSON(j4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c4) {
		t.Fatal("campaign.json differs between -j 1 and -j 4")
	}
}

// TestSequentialDegeneratesToLoop: with one worker, tasks complete in
// task order — exactly the old for-loop behavior.
func TestSequentialDegeneratesToLoop(t *testing.T) {
	var mu sync.Mutex
	var order []string
	tasks := []Task{okTask("a"), okTask("b"), okTask("c"), okTask("d")}
	results := Run(context.Background(), tasks, Options{
		Workers: 1,
		OnResult: func(r Result) {
			mu.Lock()
			order = append(order, r.ID)
			mu.Unlock()
		},
	})
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
	for i, r := range results {
		if r.ID != want[i] || r.Status != StatusOK || r.Attempts != 1 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// TestTimeoutCancelsHungExperiment: a task that honors ctx is cancelled
// when the per-task deadline fires, and a timeout is not retried.
func TestTimeoutCancelsHungExperiment(t *testing.T) {
	var invocations atomic.Int32 // the timed-out attempt's goroutine outlives Run
	hung := Task{ID: "hang", Run: func(ctx context.Context) (*core.Experiment, error) {
		invocations.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	start := time.Now()
	results := Run(context.Background(), []Task{hung}, Options{Workers: 1, Timeout: 30 * time.Millisecond})
	r := results[0]
	if r.Status != StatusTimeout {
		t.Fatalf("status = %s (err %v), want timeout", r.Status, r.Err)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", r.Err)
	}
	if n := invocations.Load(); n != 1 || r.Attempts != 1 {
		t.Fatalf("invocations = %d, attempts = %d; timeouts must not be retried", n, r.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("runner blocked %v on a hung task", elapsed)
	}
}

// TestTimeoutAbandonsDeafTask: even a task that never observes ctx (like
// an ExperimentFunc driving its engine) cannot block the campaign — the
// attempt goroutine is abandoned at the deadline.
func TestTimeoutAbandonsDeafTask(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	deaf := Task{ID: "deaf", Run: func(ctx context.Context) (*core.Experiment, error) {
		<-release // ignores ctx entirely
		return nil, fmt.Errorf("released")
	}}
	results := Run(context.Background(), []Task{deaf}, Options{Workers: 1, Timeout: 30 * time.Millisecond})
	if results[0].Status != StatusTimeout {
		t.Fatalf("status = %s, want timeout", results[0].Status)
	}
}

// TestRetryOncePath: first attempt fails, second succeeds.
func TestRetryOncePath(t *testing.T) {
	attempts := 0
	flaky := Task{ID: "flaky", Run: func(ctx context.Context) (*core.Experiment, error) {
		attempts++
		if attempts == 1 {
			return nil, fmt.Errorf("transient")
		}
		return &core.Experiment{ID: "flaky", Metrics: map[string]float64{}}, nil
	}}
	r := Run(context.Background(), []Task{flaky}, Options{Workers: 1})[0]
	if r.Status != StatusOK || r.Attempts != 2 || r.Err != nil {
		t.Fatalf("result = %+v", r)
	}
}

func TestRetryDisabled(t *testing.T) {
	attempts := 0
	failing := Task{ID: "fail", Run: func(ctx context.Context) (*core.Experiment, error) {
		attempts++
		return nil, fmt.Errorf("permanent")
	}}
	r := Run(context.Background(), []Task{failing}, Options{Workers: 1, Retries: -1})[0]
	if r.Status != StatusFailed || r.Attempts != 1 || attempts != 1 {
		t.Fatalf("result = %+v (attempts %d)", r, attempts)
	}
}

// TestFailureAggregation: one failure does not stop the campaign; every
// task still runs and results stay in task order.
func TestFailureAggregation(t *testing.T) {
	boom := Task{ID: "boom", Run: func(ctx context.Context) (*core.Experiment, error) {
		return nil, fmt.Errorf("kaput")
	}}
	tasks := []Task{okTask("a"), boom, okTask("b")}
	results := Run(context.Background(), tasks, Options{Workers: 2})
	if results[0].Status != StatusOK || results[2].Status != StatusOK {
		t.Fatalf("ok tasks: %+v / %+v", results[0], results[2])
	}
	if results[1].Status != StatusFailed || results[1].Attempts != 2 {
		t.Fatalf("failed task = %+v", results[1])
	}
}

// TestPanicBecomesFailure: a panicking task is contained, reported, and
// retried like any other failure.
func TestPanicBecomesFailure(t *testing.T) {
	p := Task{ID: "panic", Run: func(ctx context.Context) (*core.Experiment, error) {
		panic("sim exploded")
	}}
	r := Run(context.Background(), []Task{p}, Options{Workers: 1})[0]
	if r.Status != StatusFailed || r.Attempts != 2 || r.Err == nil {
		t.Fatalf("result = %+v", r)
	}
}

// TestProcessPanicBecomesError: a panic inside a simulated process
// reaches the task's goroutine, so runAttempt turns it into an error
// naming the process instead of crashing the binary.
func TestProcessPanicBecomesError(t *testing.T) {
	task := Task{ID: "proc-panic", Run: func(ctx context.Context) (*core.Experiment, error) {
		eng := simcore.NewEngine(1)
		eng.Spawn("rank-3", func(p *simcore.Proc) {
			p.Sleep(simcore.Millisecond)
			panic("model bug")
		})
		return nil, eng.Run()
	}}
	_, err := runAttempt(context.Background(), task, 0)
	if err == nil || !strings.HasPrefix(err.Error(), "runner: task panicked: ") ||
		!strings.Contains(err.Error(), `process "rank-3"`) {
		t.Fatalf("runAttempt: %v, want a task-panicked error naming the process", err)
	}
}

// TestCampaignCancellation: cancelling the campaign context finishes the
// remaining tasks as canceled — a kind of their own, never conflated
// with a crash — instead of hanging.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, []Task{okTask("a"), okTask("b")}, Options{Workers: 2})
	for _, r := range results {
		if r.Status != StatusCanceled || r.Failure != FailureCanceled || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result = %+v, want canceled", r)
		}
	}
}

// TestMidRunCancellationIsCanceledKind: a task cancelled while running
// (it honors ctx) reports status/failure "canceled", and campaign.json
// carries that kind — mgridd relies on it to distinguish user-cancelled
// runs from crashes.
func TestMidRunCancellationIsCanceledKind(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	hung := Task{ID: "hung", Run: func(ctx context.Context) (*core.Experiment, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	go func() {
		<-started
		cancel()
	}()
	r := RunOne(ctx, hung, Options{})
	if r.Status != StatusCanceled || r.Failure != FailureCanceled || r.Attempts != 1 {
		t.Fatalf("result = %+v, want canceled after one attempt", r)
	}
	cj, err := CampaignJSON([]Result{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cj), `"status": "canceled"`) ||
		!strings.Contains(string(cj), `"failure": "canceled"`) {
		t.Fatalf("campaign.json does not carry the canceled kind:\n%s", cj)
	}
}

// TestRunOneSuccess: the single-task entry point matches the pool path.
func TestRunOneSuccess(t *testing.T) {
	r := RunOne(context.Background(), okTask("solo"), Options{})
	if r.Status != StatusOK || r.Failure != FailureNone || r.Attempts != 1 {
		t.Fatalf("result = %+v", r)
	}
}

func TestWriteArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	results := Run(context.Background(), []Task{okTask("a"), okTask("b")}, Options{Workers: 2})
	if err := WriteArtifacts(dir, results, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art CampaignArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Experiments) != 2 || art.Experiments[0].ID != "a" || !art.Quick {
		t.Fatalf("campaign artifact = %+v", art)
	}
	if art.Experiments[1].Table == nil || art.Experiments[1].Table.Rows[0][0] != "x" {
		t.Fatalf("table artifact = %+v", art.Experiments[1].Table)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "timings.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(csv), []byte("\n"))
	if len(lines) != 3 || !bytes.HasPrefix(lines[1], []byte("a,ok,,1,")) {
		t.Fatalf("timings.csv = %q", csv)
	}
}

// TestCampaignRegistryOrder: Campaign mirrors the experiment registry.
func TestCampaignRegistryOrder(t *testing.T) {
	tasks := Campaign(true)
	regs := core.Experiments()
	if len(tasks) != len(regs) {
		t.Fatalf("%d tasks, %d registered", len(tasks), len(regs))
	}
	for i := range tasks {
		if tasks[i].ID != regs[i].ID {
			t.Fatalf("task %d = %s, want %s", i, tasks[i].ID, regs[i].ID)
		}
	}
}
