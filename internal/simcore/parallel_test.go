package simcore

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"microgrid/internal/trace"
)

// TestParallelSingleShardMatchesSerial runs the same process workload on
// a plain Engine and a 1-shard ParallelEngine and requires identical
// observable behavior: every shard derives its streams from the config
// seed, so a 1-shard parallel run executes the same instruction stream as
// the plain Engine.
func TestParallelSingleShardMatchesSerial(t *testing.T) {
	workload := func(eng *Engine, log *[]string) {
		for i := 0; i < 3; i++ {
			i := i
			name := fmt.Sprintf("w%d", i)
			rng := eng.DeriveRand(name)
			eng.Spawn(name, func(p *Proc) {
				for r := 0; r < 4; r++ {
					p.Sleep(Duration(i+1) * Millisecond)
					*log = append(*log, fmt.Sprintf("%s@%v r%d rng=%d", p.Name(), p.Now(), r, rng.Intn(1000)))
				}
			})
		}
	}

	var serialLog []string
	se := NewEngine(7)
	workload(se, &serialLog)
	if err := se.Run(); err != nil {
		t.Fatal(err)
	}

	var parLog []string
	pe := NewParallelEngine(7, 1)
	workload(pe.Shard(0), &parLog)
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serialLog, parLog) {
		t.Fatalf("1-shard parallel diverged from serial:\nserial: %v\nparallel: %v", serialLog, parLog)
	}
}

// runCross runs a token-ring workload: one relay process per shard, the
// token forwarded to the next shard through Send each hop. Every shard
// logs into its own slice (no cross-goroutine sharing); the hop counter
// gives the total order for the merged result.
func runCross(t *testing.T, seed int64, shards int) []string {
	t.Helper()
	pe := NewParallelEngine(seed, shards)
	pe.SetLookahead(Millisecond)
	la := pe.Lookahead()
	queues := make([]*Queue[any], shards)
	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		queues[i] = NewQueue[any](pe.Shard(i))
	}
	maxHops := 3 * shards
	for i := 0; i < shards; i++ {
		i := i
		name := fmt.Sprintf("relay%d", i)
		rng := pe.Shard(i).DeriveRand(name)
		pe.Shard(i).Spawn(name, func(p *Proc) {
			for {
				v, ok := queues[i].Get(p)
				if !ok {
					return
				}
				hops := v.(int)
				logs[i] = append(logs[i], fmt.Sprintf("hop%02d shard%d @%v rng=%d",
					hops, i, p.Now(), rng.Intn(1000)))
				if hops >= maxHops {
					pe.Stop()
					return
				}
				next := (i + 1) % shards
				pe.Send(i, next, p.Now().Add(la), func() {
					queues[next].TryPut(hops + 1)
				})
			}
		})
	}
	pe.Send(0, 0, Time(la), func() { queues[0].TryPut(1) })
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	// The token visits shards round-robin: hop h ran on shard (h-1)%n,
	// so interleaving the per-shard logs reconstructs the total order.
	var merged []string
	for hop := 1; hop <= maxHops; hop++ {
		sh := (hop - 1) % shards
		idx := (hop - 1) / shards
		if idx >= len(logs[sh]) {
			t.Fatalf("shards=%d: missing hop %d on shard %d", shards, hop, sh)
		}
		merged = append(merged, logs[sh][idx])
	}
	return merged
}

// TestParallelCrossShardDeterminism re-runs a token-ring workload under
// different GOMAXPROCS settings and requires identical logs: barrier
// delivery order, not goroutine scheduling, decides everything.
func TestParallelCrossShardDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4} {
		ref := runCross(t, 11, shards)
		if len(ref) == 0 {
			t.Fatalf("shards=%d: empty log", shards)
		}
		for _, procs := range []int{1, 2, 8} {
			old := runtime.GOMAXPROCS(procs)
			got := runCross(t, 11, shards)
			runtime.GOMAXPROCS(old)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("shards=%d GOMAXPROCS=%d diverged:\nref: %v\ngot: %v", shards, procs, ref, got)
			}
		}
	}
}

// TestParallelLookaheadViolation requires Send to panic when an event is
// scheduled inside the executing window — the conservative contract.
func TestParallelLookaheadViolation(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	pe.Shard(0).At(Time(Millisecond), func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Send inside the window did not panic")
			} else if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
				t.Errorf("unexpected panic: %v", r)
			}
			panic(r) // re-panic; the engine run below recovers it
		}()
		// The window is [1ms, 2ms); sending at 1.5ms violates lookahead.
		pe.Send(0, 1, Time(Millisecond+Millisecond/2), func() {})
	})
	func() {
		defer func() { recover() }()
		_ = pe.Run()
	}()
}

// TestParallelSendBoundary verifies that sending exactly at the window
// end — the minimum the lookahead contract allows — is accepted.
func TestParallelSendBoundary(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	fired := false
	pe.Shard(0).At(Time(Millisecond), func() {
		pe.Send(0, 1, Time(2*Millisecond), func() { fired = true })
	})
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("boundary send never delivered")
	}
}

// TestParallelDeadlockAggregation blocks processes on several shards and
// requires one DeadlockError naming all of them, sorted.
func TestParallelDeadlockAggregation(t *testing.T) {
	pe := NewParallelEngine(1, 3)
	for i := 0; i < 3; i++ {
		sh := pe.Shard(i)
		cond := NewCond(sh)
		sh.Spawn(fmt.Sprintf("stuck%d", 2-i), func(p *Proc) {
			cond.Wait(p)
		})
	}
	err := pe.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"stuck0", "stuck1", "stuck2"}
	if !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("blocked = %v, want %v", dl.Blocked, want)
	}
}

// TestParallelShardStop verifies that a shard engine's own Stop (what
// model code calls) halts the whole parallel run, as in a serial run.
func TestParallelShardStop(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	ran := 0
	pe.Shard(1).At(Time(Millisecond), func() {
		ran++
		pe.Shard(1).Stop()
	})
	// Far-future work that must be discarded after the stop.
	pe.Shard(0).At(Time(Second), func() { ran += 100 })
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (stop must discard pending events)", ran)
	}
	if !pe.Stopped() {
		t.Fatal("Stopped() = false after shard stop")
	}
}

// TestParallelRunUntil checks the limit semantics match the serial
// engine: events at t ≤ limit execute, later ones stay pending.
func TestParallelRunUntil(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	var got []int
	pe.Shard(0).At(Time(3*Millisecond), func() { got = append(got, 3) })
	pe.Shard(1).At(Time(5*Millisecond), func() { got = append(got, 5) })
	pe.Shard(0).At(Time(7*Millisecond), func() { got = append(got, 7) })
	if err := pe.RunUntil(Time(5 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("got = %v, want [3 5]", got)
	}
}

// TestParallelLookaheadResolution covers the explicit/default lookahead
// precedence and the guard rails.
func TestParallelLookaheadResolution(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	if pe.Lookahead() != DefaultLookahead {
		t.Fatalf("default lookahead = %v", pe.Lookahead())
	}
	pe.SetLookahead(5 * Millisecond)
	if pe.Lookahead() != 5*Millisecond {
		t.Fatalf("explicit lookahead = %v, want 5ms", pe.Lookahead())
	}
	pe.SetLookahead(2 * Millisecond)
	if pe.Lookahead() != 2*Millisecond {
		t.Fatalf("reset lookahead = %v, want 2ms", pe.Lookahead())
	}
	for _, fn := range []func(){
		func() { pe.SetLookahead(0) },
		func() { pe.SetLookahead(-Millisecond) },
		func() { NewParallelEngine(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestParallelMergedTrace attaches a recorder to every shard and checks
// the merged run: (time, shard, seq) order, renumbered Seq, summed
// counters.
func TestParallelMergedTrace(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	for i := 0; i < 2; i++ {
		r := trace.NewRecorder(64, trace.CatLog)
		if i == 0 {
			r.Label = "merged"
		}
		pe.Shard(i).SetRecorder(r)
	}
	for i := 0; i < 2; i++ {
		i := i
		sh := pe.Shard(i)
		logf := func(format string) func() {
			return func() {
				sh.Recorder().Event(trace.CatLog, "log", trace.Attr{Detail: fmt.Sprintf(format, i)})
			}
		}
		sh.At(Time(Millisecond), logf("a%d"))
		sh.At(Time(2*Millisecond), logf("b%d"))
	}
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	run := pe.MergedTrace()
	if run.Label != "merged" {
		t.Fatalf("label = %q", run.Label)
	}
	if run.Emitted != 4 || run.Dropped != 0 {
		t.Fatalf("emitted=%d dropped=%d, want 4/0", run.Emitted, run.Dropped)
	}
	var got []string
	for i, ev := range run.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq = %d, not renumbered", i, ev.Seq)
		}
		got = append(got, fmt.Sprintf("%d:%s", ev.T, ev.Detail))
	}
	want := []string{"1000000:a0", "1000000:a1", "2000000:b0", "2000000:b1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

// TestParallelWindowCount sanity-checks the window accounting: a run
// whose events sit 1 lookahead apart needs one window per instant.
func TestParallelWindowCount(t *testing.T) {
	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	for i := 1; i <= 4; i++ {
		pe.Shard(i%2).At(Time(Duration(i)*Millisecond), func() {})
	}
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	if pe.Windows() != 4 {
		t.Fatalf("windows = %d, want 4", pe.Windows())
	}
}

// TestParallelWindowPanicLowestShard panics on two of three shards in
// one window: Run re-raises the lowest shard's panic, and only after the
// shard that did not panic has finished its part of the window.
func TestParallelWindowPanicLowestShard(t *testing.T) {
	pe := NewParallelEngine(1, 3)
	pe.SetLookahead(Millisecond)
	finished := false
	pe.Shard(0).At(Time(Millisecond+Millisecond/2), func() { finished = true })
	pe.Shard(1).At(Time(Millisecond), func() { panic("shard 1") })
	pe.Shard(2).At(Time(Millisecond), func() { panic("shard 2") })
	var got any
	func() {
		defer func() { got = recover() }()
		_ = pe.Run()
	}()
	if got != "shard 1" {
		t.Errorf("Run panicked with %v, want shard 1's panic", got)
	}
	if !finished {
		t.Error("shard 0 did not finish the window before the panic was re-raised")
	}
}
