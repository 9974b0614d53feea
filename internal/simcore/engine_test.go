package simcore

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"microgrid/internal/trace"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30*Millisecond, func() { got = append(got, 3) })
	e.After(10*Millisecond, func() { got = append(got, 1) })
	e.After(20*Millisecond, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*Millisecond) {
		t.Fatalf("final time = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(Time(5*Millisecond), func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(42*Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, fmt.Sprintf("%s%d@%v", name, i, p.Now()))
				p.Sleep(10 * Millisecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0@0s", "b0@0s", "a1@10ms", "b1@10ms", "a2@20ms", "b2@20ms"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("p", func(p *Proc) {
		e.After(0, func() { trace = append(trace, "event") })
		p.Yield()
		trace = append(trace, "after-yield")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != "event" || trace[1] != "after-yield" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestDaemonNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		c.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.After(10*Millisecond, func() { fired++ })
	e.After(30*Millisecond, func() { fired++ })
	if err := e.RunUntil(Time(20 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var order []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		e.Spawn(n, func(p *Proc) {
			v := c.Wait(p)
			order = append(order, fmt.Sprintf("%s=%v", n, v))
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(Millisecond)
		c.Signal(1)
		c.Signal(2)
		c.Signal(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1=1", "w2=2", "w3=3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCondSignalEmpty(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	if c.Signal(nil) {
		t.Fatal("Signal on empty cond reported a waiter")
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	woken := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		if n := c.Broadcast(); n != 4 {
			t.Errorf("Broadcast woke %d, want 4", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var timedOut bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		_, timedOut = c.WaitTimeout(p, 15*Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || at != Time(15*Millisecond) {
		t.Fatalf("timedOut=%v at=%v", timedOut, at)
	}
	if c.Len() != 0 {
		t.Fatalf("timed-out waiter still queued (len=%d)", c.Len())
	}
}

func TestCondWaitTimeoutSignalWins(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var timedOut bool
	var v any
	e.Spawn("w", func(p *Proc) {
		v, timedOut = c.WaitTimeout(p, 50*Millisecond)
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		c.Signal("hello")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut || v != "hello" {
		t.Fatalf("timedOut=%v v=%v", timedOut, v)
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[any](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("Get returned !ok")
				return
			}
			got = append(got, v.(int))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Millisecond)
			q.TryPut(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
}

func TestQueueClose(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[any](e)
	var ok bool
	e.Spawn("consumer", func(p *Proc) {
		_, ok = q.Get(p)
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(Millisecond)
		q.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Get on closed empty queue returned ok")
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[any](e)
	e.Spawn("c", func(p *Proc) {
		_, ok, timedOut := q.GetTimeout(p, 5*Millisecond)
		if ok || !timedOut {
			t.Errorf("ok=%v timedOut=%v, want timeout", ok, timedOut)
		}
		if p.Now() != Time(5*Millisecond) {
			t.Errorf("timed out at %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueGetTimeoutValueArrives(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[any](e)
	e.Spawn("c", func(p *Proc) {
		v, ok, timedOut := q.GetTimeout(p, 50*Millisecond)
		if !ok || timedOut || v.(string) != "x" {
			t.Errorf("v=%v ok=%v timedOut=%v", v, ok, timedOut)
		}
	})
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		q.TryPut("x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueTryPut(t *testing.T) {
	q := NewQueue[any](NewEngine(1))
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut on an open queue failed")
	}
	q.Close()
	if q.TryPut(3) {
		t.Fatal("TryPut on a closed queue succeeded")
	}
	if q.Len() != 2 || q.items.pop().(int) != 1 {
		t.Fatal("TryPut did not queue its items in order")
	}
}

// TestDeterminism runs a moderately complex mixed workload twice and
// requires identical traces — the foundational property of the engine.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(99)
		q := NewQueue[any](e)
		c := NewCond(e)
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			name := fmt.Sprintf("prod%d", i)
			rng := e.DeriveRand(name)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(rng.Intn(1000)) * Microsecond)
					q.TryPut(i*100 + j)
				}
			})
		}
		e.Spawn("cons", func(p *Proc) {
			for k := 0; k < 50; k++ {
				v, _ := q.Get(p)
				trace = append(trace, fmt.Sprintf("%v:%v", p.Now(), v))
				if k == 25 {
					c.Broadcast()
				}
			}
		})
		e.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			trace = append(trace, fmt.Sprintf("woke@%v", p.Now()))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDurationOfSeconds(t *testing.T) {
	cases := []struct {
		s    float64
		want Duration
	}{
		{1.0, Second},
		{0.001, Millisecond},
		{1.5, 1500 * Millisecond},
		{0, 0},
	}
	for _, c := range cases {
		if got := DurationOfSeconds(c.s); got != c.want {
			t.Errorf("DurationOfSeconds(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

// Property: for any sequence of non-negative delays, events fire in
// non-decreasing time order and the engine's final clock equals the max.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var last Time = -1
		monotone := true
		var max Time
		for _, d := range delays {
			dd := Duration(d) * Microsecond
			tt := e.Now().Add(dd)
			if tt > max {
				max = tt
			}
			e.After(dd, func() {
				if e.Now() < last {
					monotone = false
				}
				last = e.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return monotone && (len(delays) == 0 || e.Now() == max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every item put is eventually got exactly once, in FIFO order,
// however puts in bursts interleave with gets.
func TestPropertyQueueFIFO(t *testing.T) {
	f := func(n uint8, burst uint8) bool {
		items := int(n%64) + 1
		every := int(burst%8) + 1
		e := NewEngine(11)
		q := NewQueue[any](e)
		var got []int
		e.Spawn("prod", func(p *Proc) {
			for i := 0; i < items; i++ {
				q.TryPut(i)
				if i%every == 0 {
					p.Sleep(Microsecond)
				}
			}
			q.Close()
		})
		e.Spawn("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v.(int))
				p.Sleep(Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != items {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(500*Millisecond) != Time(2*Second) {
		t.Errorf("Add failed")
	}
	if tm.Sub(Time(Second)) != 500*Millisecond {
		t.Errorf("Sub failed")
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

// TestRecorderLogEvents checks that log records carry the engine's
// virtual time and reach a recorder sink, and that a detached recorder
// is a no-op.
func TestRecorderLogEvents(t *testing.T) {
	e := NewEngine(1)
	rec := trace.NewRecorder(0, trace.CatLog)
	e.SetRecorder(rec)
	var lines []string
	rec.SetSink(func(ev trace.Event) {
		lines = append(lines, fmt.Sprintf("%v: %s", Time(ev.T), ev.Detail))
	})
	logf := func(format string, args ...any) {
		if r := e.Recorder(); r.Enabled(trace.CatLog) {
			r.Event(trace.CatLog, "log", trace.Attr{Detail: fmt.Sprintf(format, args...)})
		}
	}
	logf("hello %d", 42)
	e.After(5*Millisecond, func() { logf("later") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "0s: hello 42" || lines[1] != "5ms: later" {
		t.Fatalf("lines = %v", lines)
	}
	e.SetRecorder(nil)
	logf("dropped") // must not panic
}

func TestRandDeterministic(t *testing.T) {
	draw := func() []int64 {
		r := NewEngine(123).DeriveRand("stream")
		out := make([]int64, 5)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand diverged at %d", i)
		}
	}
	// A different seed gives a different stream.
	c := NewEngine(124).DeriveRand("stream").Int63()
	if c == a[0] {
		t.Fatal("seeds 123 and 124 coincide")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After accepted")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestStoppedFlag(t *testing.T) {
	e := NewEngine(1)
	if e.Stopped() {
		t.Fatal("fresh engine reports stopped")
	}
	e.Stop()
	if !e.Stopped() {
		t.Fatal("Stop() not reflected")
	}
}

func TestSpawnAtFuture(t *testing.T) {
	e := NewEngine(1)
	var started Time = -1
	e.SpawnAt(Time(time.Second), "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != Time(time.Second) {
		t.Fatalf("started at %v", started)
	}
}

// TestDeriveRandStreams pins the per-entity RNG contract the partition
// layer depends on: distinct labels yield distinct streams, the same
// label always yields the same stream, every shard of a parallel engine
// derives identical streams for one label, and the base seed still
// matters (different runs differ).
func TestDeriveRandStreams(t *testing.T) {
	labels := []string{
		"chaos:wan-faults:0", "chaos:wan-faults:1",
		"cpu:vm0", "cpu:vm1", "io:vm0",
		"globus:backoff:MG.S.4:client:0",
		"loss:ucsd-gw->vbns-west", "loss:vbns-west->ucsd-gw",
	}
	draw := func(e *Engine, label string) [4]int64 {
		r := e.DeriveRand(label)
		var out [4]int64
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	eng := NewEngine(7)
	seen := map[[4]int64]string{}
	for _, l := range labels {
		s := draw(eng, l)
		if prev, dup := seen[s]; dup {
			t.Fatalf("labels %q and %q share a stream", prev, l)
		}
		seen[s] = l
		if s != draw(eng, l) {
			t.Fatalf("label %q is not stable across calls", l)
		}
	}
	pe := NewParallelEngine(7, 4)
	for i := 0; i < pe.NumShards(); i++ {
		if got := draw(pe.Shard(i), labels[0]); got != draw(eng, labels[0]) {
			t.Fatalf("shard %d derives a different stream for %q", i, labels[0])
		}
	}
	other := NewEngine(8)
	if draw(other, labels[0]) == draw(eng, labels[0]) {
		t.Fatal("base seed does not affect derived streams")
	}
}
