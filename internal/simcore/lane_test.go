package simcore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// collidingDelays returns two distinct delays that hash to one lane slot.
func collidingDelays() (Time, Time) {
	first := make(map[int]Time)
	for d := Time(1000); ; d += 7 {
		slot := laneSlot(d)
		if prev, ok := first[slot]; ok {
			return prev, d
		}
		first[slot] = d
	}
}

// delayMix draws the delays of a randomized schedule: a few repeated
// delays (lanes), two delays sharing one slot, zero delays (the
// same-instant FIFO) and distinct delays (heap strays).
type delayMix struct {
	rng      *rand.Rand
	repeated []Time
}

func newDelayMix(rng *rand.Rand) *delayMix {
	a, b := collidingDelays()
	return &delayMix{
		rng:      rng,
		repeated: []Time{Time(50 * Microsecond), Time(6400), Time(240 * Microsecond), a, b},
	}
}

func (m *delayMix) next() Time {
	switch r := m.rng.Intn(10); {
	case r < 6:
		return m.repeated[m.rng.Intn(len(m.repeated))]
	case r < 8:
		return 0
	default:
		return Time(1 + m.rng.Intn(500_000))
	}
}

// eventStorm schedules a randomized callback workload on s's engine:
// chains that re-arm themselves with delays from the mix and sometimes
// fork or end (keeping between chains/2 and 2*chains alive), plus
// standing timers — a 10 ms re-arm on a third of all activity — whose
// lane never drains. Each callback gets a fresh id.
func eventStorm(s *shadow, rng *rand.Rand, chains, budget int) {
	mix := newDelayMix(rng)
	const rto = Time(10 * Millisecond)
	nextID, live := 0, chains
	var fire func()
	fire = func() {
		if budget <= 0 {
			return
		}
		budget--
		k := 1
		switch r := rng.Intn(8); {
		case r == 0 && live < 2*chains:
			k++
		case r == 1 && live > chains/2:
			k--
		}
		live += k - 1
		for ; k > 0; k-- {
			nextID++
			s.at(s.e.Now()+mix.next(), nextID, fire)
		}
		if rng.Intn(3) == 0 {
			nextID++
			s.at(s.e.Now()+rto, nextID, func() {})
		}
	}
	for i := 0; i < chains; i++ {
		nextID++
		s.at(s.e.Now()+mix.next(), nextID, fire)
	}
}

// TestLanesMatchHeapOrder is the exact-order differential test: on
// randomized schedules the laned engine dispatches the same (t, seq, id)
// sequence as the heap-only reference queue, and leaves the same events
// queued after RunUntil limits and Stop.
func TestLanesMatchHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		s := newShadow(e)
		eventStorm(s, rng, 5+rng.Intn(60), 3000)
		limit := Time(0)
		for seg := 0; seg < 4; seg++ {
			limit += Time(rng.Intn(int(20 * Millisecond)))
			if err := e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
			if next, ok := e.nextEventTime(); ok && next <= limit {
				t.Fatalf("seed %d: RunUntil(%v) left an event at %v", seed, limit, next)
			}
			s.check(t, fmt.Sprintf("seed %d RunUntil(%v)", seed, limit))
		}
		if seed%3 == 0 {
			// Stop from a callback at a lane-heavy instant; the rest of
			// the queue must stay exactly as the reference has it.
			s.at(e.Now()+Time(50*Microsecond), -2, e.Stop)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		s.check(t, fmt.Sprintf("seed %d Run", seed))
		if len(s.got) < 1000 {
			t.Fatalf("seed %d: only %d dispatches", seed, len(s.got))
		}
	}
}

// TestLanesMatchHeapOrderWithProcs drives processes through lanes: they
// sleep with repeated delays, wait on a Cond with timeouts and are killed
// at random, so wakeups that must evaporate, Kill handshakes and
// same-instant bursts mix with laned timers.
func TestLanesMatchHeapOrderWithProcs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		s := newShadow(e)
		mix := newDelayMix(rng)
		cond := NewCond(e)
		var procs []*Proc
		for i := 0; i < 12; i++ {
			procs = append(procs, e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for r := 0; r < 200; r++ {
					switch rng.Intn(4) {
					case 0:
						cond.WaitTimeout(p, Duration(mix.repeated[rng.Intn(len(mix.repeated))]))
					case 1:
						cond.Signal(r)
					default:
						p.Sleep(Duration(mix.next()))
					}
				}
			}))
		}
		e.Spawn("killer", func(p *Proc) {
			for _, v := range rng.Perm(len(procs))[:6] {
				p.Sleep(Duration(mix.repeated[0]) * Duration(1+rng.Intn(40)))
				e.Kill(procs[v])
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		s.check(t, fmt.Sprintf("seed %d", seed))
		if len(s.got) < 500 {
			t.Fatalf("seed %d: only %d dispatches", seed, len(s.got))
		}
	}
}

// TestLanesMatchHeapOrderParallel shadows both shards of a 2-shard
// ParallelEngine: cross-shard deliveries enter each shard's queue at the
// barrier and must merge with its lanes in the reference order.
func TestLanesMatchHeapOrderParallel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pe := NewParallelEngine(seed, 2)
		pe.SetLookahead(100 * Microsecond)
		var shadows [2]*shadow
		for i := range shadows {
			shadows[i] = newShadow(pe.Shard(i))
		}
		for i := range shadows {
			i := i
			s := shadows[i]
			rng := rand.New(rand.NewSource(seed*10 + int64(i)))
			mix := newDelayMix(rng)
			budget, id := 2000, 0
			var fire func()
			fire = func() {
				if budget <= 0 {
					return
				}
				budget--
				id++
				s.at(s.e.Now()+mix.next(), id, fire)
				if rng.Intn(4) == 0 {
					d := pe.Lookahead() + Duration(mix.next())
					s.e.SendTo(pe.Shard(1-i), d, func() {})
				}
			}
			for ; id < 20; id++ {
				s.at(mix.next(), id, fire)
			}
		}
		if err := pe.Run(); err != nil {
			t.Fatal(err)
		}
		for i, s := range shadows {
			s.check(t, fmt.Sprintf("seed %d shard %d", seed, i))
			if len(s.got) < 2000 {
				t.Fatalf("seed %d shard %d: only %d dispatches", seed, i, len(s.got))
			}
		}
	}
}

// TestLaneBufferBounded runs 10⁶ events through a lane that never
// empties — a standing re-armed timer stream whose pending count swings
// between bursts — and bounds its ring by twice its peak length plus the
// minimum ring size.
func TestLaneBufferBounded(t *testing.T) {
	e := NewEngine(1)
	const d = Time(10 * Millisecond)
	l := &e.lanes[laneSlot(d)]
	peak, n := 0, 0
	var fire func()
	fire = func() {
		n++
		if l.n > peak {
			peak = l.n
		}
		if l.n == 0 && n < 999_000 {
			t.Fatalf("lane emptied after %d events", n)
		}
		switch k := n % 1000; {
		case n >= 1_000_000:
		case k < 10: // a burst grows the lane ...
			e.At(e.Now()+d, fire)
			e.At(e.Now()+d, fire)
		case k >= 500 && k < 510: // ... and a lull shrinks it again
		default:
			e.At(e.Now()+d, fire)
		}
	}
	for i := 0; i < 100; i++ {
		e.At(Time(i)*Time(Microsecond)+1, func() { e.At(e.Now()+d, fire) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n < 1_000_000 {
		t.Fatalf("ran %d lane events, want 10⁶", n)
	}
	if peak == 0 || len(l.buf) > 2*peak+minRingCap {
		t.Fatalf("lane ring holds %d slots for a peak of %d queued events", len(l.buf), peak)
	}
	if l.d != 0 || l.n != 0 {
		t.Fatalf("drained lane still live: d=%v n=%d", l.d, l.n)
	}
}

// TestPendingCountsLanes blocks a process forever while the only
// scheduled events sit in one delay lane: a head in the far heap and the
// rest behind it. pending must count them all, so RunUntil stopping short of
// them is no deadlock — for the serial engine and a ParallelEngine alike
// — while draining them is.
func TestPendingCountsLanes(t *testing.T) {
	const d = Time(Millisecond)
	setup := func(e *Engine) {
		cond := NewCond(e)
		e.Spawn("stuck", func(p *Proc) { cond.Wait(p) })
		for i := 0; i < 5; i++ {
			e.At(Time(i)*Time(Microsecond)+1, func() { e.At(e.Now()+d, func() {}) })
		}
	}
	e := NewEngine(1)
	setup(e)
	if err := e.RunUntil(Time(10 * Microsecond)); err != nil {
		t.Fatalf("RunUntil before the lane drains: %v", err)
	}
	// A 1 ms delay is at the far horizon, so the lane's head waits in the
	// far heap.
	if l := &e.lanes[laneSlot(d)]; len(e.near) != 0 || len(e.far) != 1 || l.n != 4 || e.pending() != 5 {
		t.Fatalf("near %d, far %d, lane %d, pending %d; want 0, 1, 4, 5",
			len(e.near), len(e.far), l.n, e.pending())
	}

	e = NewEngine(1)
	setup(e)
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 1 {
		t.Fatalf("Run = %v, want a deadlock of one process", err)
	}

	pe := NewParallelEngine(1, 2)
	setup(pe.Shard(1))
	if err := pe.RunUntil(Time(10 * Microsecond)); err != nil {
		t.Fatalf("parallel RunUntil before the lane drains: %v", err)
	}
	if pe.pending() != 5 {
		t.Fatalf("parallel pending = %d, want 5", pe.pending())
	}
}

// TestHeapsMatchHeapOrderAcrossHorizon is the exact-order differential
// test for the near/far heap split. Delays straddle farHorizon — just
// under, at and just over it, plus quarters of it that sum to it — so
// events scheduled far ahead meet events scheduled near at one instant,
// and ties fall across the two heaps and the same-instant FIFO. The
// engine must dispatch the single heap's (t, seq, id) sequence and keep
// the same events queued after RunUntil limits and Stop.
func TestHeapsMatchHeapOrderAcrossHorizon(t *testing.T) {
	const h = farHorizon
	delays := []Time{h - 1, h, h + 1, h / 4, h / 2, 3 * h / 4, 2 * h, 0}
	ties := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		s := newShadow(e)
		budget, nextID := 4000, 0
		var fire func()
		fire = func() {
			if len(e.near) > 0 && len(e.far) > 0 && e.near[0].t == e.far[0].t {
				ties++
			}
			if budget <= 0 {
				return
			}
			budget--
			for k := 1 + rng.Intn(2); k > 0; k-- {
				d := delays[rng.Intn(len(delays))]
				if rng.Intn(6) == 0 {
					d = Time(1 + rng.Intn(int(3*h))) // a stray anywhere
				}
				nextID++
				s.at(e.Now()+d, nextID, fire)
			}
		}
		for i := 0; i < 20; i++ {
			nextID++
			s.at(delays[rng.Intn(len(delays))], nextID, fire)
		}
		limit := Time(0)
		for seg := 0; seg < 3; seg++ {
			limit += Time(rng.Intn(int(40 * h)))
			if err := e.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
			s.check(t, fmt.Sprintf("seed %d RunUntil(%v)", seed, limit))
		}
		if seed%2 == 0 {
			s.at(e.Now()+h, -2, e.Stop)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		s.check(t, fmt.Sprintf("seed %d Run", seed))
		if len(s.got) < 2000 {
			t.Fatalf("seed %d: only %d dispatches", seed, len(s.got))
		}
	}
	if ties < 100 {
		t.Fatalf("only %d instants had both heap roots tied; the schedule does not straddle the horizon", ties)
	}
}
