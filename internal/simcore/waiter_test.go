package simcore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// waiterScenario exercises the pooled Cond waiters on one engine and
// returns its log, filled in as the engine runs. Any misdelivery is
// reported through t. It covers:
//
//   - reuse: five processes wait on three Conds while a signaller process
//     signals them in bursts; a reference FIFO per Cond names the process
//     each value must reach. A waiter released before its delivery would be
//     reused by the next Wait and wake the wrong process.
//   - hand-on: a process killed between Signal and delivery passes the
//     signal to the next waiter, and its waiter's reuse wakes no one else.
//   - timeout races: a WaitTimeout whose timeout and a Signal land on the
//     same instant wakes exactly once, whichever was scheduled first. A
//     losing timeout cannot wake the process's next (pooled) Wait; a
//     losing signal is not lost but wakes that next Wait.
func waiterScenario(t *testing.T, e *Engine) *[]string {
	log := new([]string)
	logf := func(format string, args ...any) {
		*log = append(*log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}

	// Reuse against a reference FIFO.
	conds := []*Cond{NewCond(e), NewCond(e), NewCond(e)}
	model := make([][]string, len(conds))
	expect := map[int]string{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		rng := rand.New(rand.NewSource(int64(i)))
		e.Spawn(name, func(p *Proc) {
			for {
				k := rng.Intn(len(conds))
				model[k] = append(model[k], name)
				v := conds[k].Wait(p).(int)
				if expect[v] != name {
					t.Errorf("value %d woke %s, want %s", v, name, expect[v])
				}
				logf("%s got %d on c%d", name, v, k)
			}
		}).SetDaemon(true)
	}
	e.Spawn("signaller", func(p *Proc) {
		rng := rand.New(rand.NewSource(99))
		v := 0
		for round := 0; round < 200; round++ {
			p.Sleep(Duration(1+rng.Intn(3)) * Microsecond)
			for burst := 1 + rng.Intn(3); burst > 0; burst-- {
				k := rng.Intn(len(conds))
				v++
				want := ""
				if len(model[k]) > 0 {
					want, model[k] = model[k][0], model[k][1:]
				}
				expect[v] = want
				if got := conds[k].Signal(v); got != (want != "") {
					t.Errorf("Signal(%d) on c%d reported %v with %d modelled waiters", v, k, got, len(model[k]))
				}
			}
		}
	})

	// Hand-on past a waiter killed between Signal and delivery.
	c := NewCond(e)
	victim := e.Spawn("victim", func(p *Proc) {
		c.Wait(p)
		t.Error("killed victim was woken")
	})
	e.Spawn("heir", func(p *Proc) {
		p.Sleep(Microsecond) // queue behind the victim
		logf("heir got %v", c.Wait(p))
		logf("heir got %v", c.Wait(p)) // reuses a released waiter
	})
	e.At(Time(Millisecond), func() {
		c.Signal("first")
		e.Kill(victim)
	})
	e.At(Time(2*Millisecond), func() {
		if !c.Signal("second") {
			t.Error("heir not waiting for its second signal")
		}
		if c.Signal("stray") {
			t.Error("a released waiter was still queued")
		}
	})

	// WaitTimeout racing a Signal at its deadline, both ways round.
	for _, signalFirst := range []bool{true, false} {
		rc := NewCond(e)
		name := fmt.Sprintf("racer-signalfirst=%v", signalFirst)
		deadline := Time(3 * Millisecond)
		signal := func() { logf("%s signal delivered=%v", name, rc.Signal("raced")) }
		if signalFirst {
			e.At(deadline, signal)
		}
		e.Spawn(name, func(p *Proc) {
			p.Sleep(deadline.Sub(p.Now()) - Millisecond)
			v, timedOut := rc.WaitTimeout(p, Millisecond)
			logf("%s woke v=%v timedOut=%v", name, v, timedOut)
			if v != nil == timedOut {
				t.Errorf("%s: v=%v with timedOut=%v", name, v, timedOut)
			}
			logf("%s then got %v", name, rc.Wait(p))
		})
		if !signalFirst {
			// Scheduled after WaitTimeout armed its timeout.
			e.At(deadline-Time(Millisecond/2), func() { e.At(deadline, signal) })
		}
		e.At(deadline+Time(Millisecond), func() { rc.Signal("later") })
	}
	return log
}

// TestPooledCondWaiters runs waiterScenario serially and on both shards
// of a 2-shard engine at once: the waiter pools are engine-local, so
// every shard's log must equal the serial one.
func TestPooledCondWaiters(t *testing.T) {
	serial := NewEngine(1)
	log := waiterScenario(t, serial)
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	want := *log
	if len(want) < 200 {
		t.Fatalf("serial run logged only %d wakeups", len(want))
	}
	for _, line := range []string{
		"1ms heir got first",
		"2ms heir got second",
		"3ms racer-signalfirst=true woke v=raced timedOut=false",
		"3ms racer-signalfirst=false woke v=<nil> timedOut=true",
		// The timeout won, so the signal wakes the racer's next Wait.
		"3ms racer-signalfirst=false signal delivered=true",
		"3ms racer-signalfirst=false then got raced",
		"4ms racer-signalfirst=true then got later",
	} {
		found := false
		for _, l := range want {
			found = found || l == line
		}
		if !found {
			t.Errorf("serial log lacks %q", line)
		}
	}

	pe := NewParallelEngine(1, 2)
	pe.SetLookahead(Millisecond)
	logs := make([]*[]string, 2)
	for i := range logs {
		logs[i] = waiterScenario(t, pe.Shard(i))
	}
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range logs {
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("shard %d log differs from serial (%d vs %d lines)", i, len(*got), len(want))
		}
	}
}
