package simcore

import (
	"math/rand"
	"testing"
)

// Run these with a fixed iteration count so every sample does the same
// work, e.g.
//
//	go test -run '^$' -bench . -benchtime 200000x -count 5 ./internal/simcore

// benchChains dispatches b.N events from chains self-rescheduling
// callbacks; chain i re-arms itself with delay(i, k) on its k-th firing.
// ns/op is the cost of one scheduled-and-dispatched event.
func benchChains(b *testing.B, chains int, delay func(i, k int) Duration) {
	e := NewEngine(1)
	n := 0
	for i := 0; i < chains; i++ {
		i, k := i, 0
		var fire func()
		fire = func() {
			n++
			if n >= b.N {
				e.Stop()
				return
			}
			k++
			e.After(delay(i, k), fire)
		}
		e.After(delay(i, 0), fire)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDispatchFixedDelays is the npb-bt-a shape: about 300 pending
// events on four interleaved fixed delays (50 µs, 6.4 µs, 240 µs and the
// 10 ms TCP RTO, weighted like that run's schedule sites), so nearly
// every event joins a delay lane.
func BenchmarkDispatchFixedDelays(b *testing.B) {
	delays := []Duration{50 * Microsecond, 6400, 240 * Microsecond, 10 * Millisecond}
	weights := []int{38, 19, 19, 9} // per 85 events, ~ 4.65 : 2.32 : 2.31 : 1.09
	var pick []Duration
	for j, w := range weights {
		for ; w > 0; w-- {
			pick = append(pick, delays[j])
		}
	}
	benchChains(b, 300, func(i, _ int) Duration { return pick[i%len(pick)] })
}

// BenchmarkDispatchDistinctDelays draws every delay from a wide range, so
// delays rarely repeat and events take the heap path.
func BenchmarkDispatchDistinctDelays(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	table := make([]Duration, 4096)
	for j := range table {
		table[j] = Duration(1 + rng.Intn(1_000_000))
	}
	benchChains(b, 300, func(i, k int) Duration { return table[(i*31+k)&(len(table)-1)] })
}

// BenchmarkDispatchSingleChain is a lone self-rescheduling event, the
// worst case for lanes: every event claims a lane slot and frees it.
func BenchmarkDispatchSingleChain(b *testing.B) {
	benchChains(b, 1, func(_, _ int) Duration { return Microsecond })
}

// BenchmarkProcSwitch is one Sleep: the process parks, its timer event
// fires and resumes it. ns/op is one park/resume round trip plus one
// dispatched event.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondWake is one Cond.Signal to a parked waiter, which wakes
// and parks again while the signaler yields: two switches per op.
func BenchmarkCondWake(b *testing.B) {
	e := NewEngine(1)
	c := NewCond(e)
	woken := 0
	e.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			woken++
		}
	}).SetDaemon(true)
	e.Spawn("signaler", func(p *Proc) {
		p.Yield() // let the waiter park first
		for i := 0; i < b.N; i++ {
			c.Signal(nil)
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if woken != b.N {
		b.Fatalf("woke %d times, want %d", woken, b.N)
	}
}
