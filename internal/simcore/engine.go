// Package simcore provides a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which every MicroGrid model
// (hosts, schedulers, networks, middleware) runs.
//
// Processes are coroutines, so exactly one of them executes at a time: a
// process runs until it blocks on a simulation primitive (Sleep,
// Cond.Wait, Queue.Get, ...), at which point control switches back to the
// engine, which advances virtual time to the next event.
// Events run in one total order, (time, sequence), so runs are
// bit-for-bit deterministic for a given seed. The queue behind that
// order is two min-heaps, one for events due soon and one for events
// scheduled far ahead, merged with two kinds of FIFO that are sorted by
// construction: the same-instant FIFO, and delay lanes that hold events
// sharing one delay (see Engine).
package simcore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"microgrid/internal/trace"
)

// Time is a point in simulated time, in nanoseconds from the start of the
// simulation.
type Time int64

// Duration is a span of simulated time, in nanoseconds. It is distinct from
// time.Duration only by intent; helper constructors accept time.Duration.
type Duration = time.Duration

// Common duration units re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return Duration(t).String()
}

// DurationOfSeconds converts floating-point seconds to a Duration, rounding
// to the nearest nanosecond (negative spans round to nearest too).
func DurationOfSeconds(s float64) Duration {
	return Duration(math.Round(s * 1e9))
}

// event is a scheduled callback. Events are stored by value — no per-event
// pointer, no interface boxing — in the heaps, the same-instant FIFO and
// the delay lanes (see Engine).
type event struct {
	t   Time
	seq int64
	fn  func()
}

// before reports whether a sorts before b in the (time, seq) total order.
// Sequence numbers are unique, so this is a strict total order.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// heapEntry is an event in a heap, tagged with the delay lane it heads.
type heapEntry struct {
	event
	lane int32 // 1 + the lane slot this entry heads; 0 for a stray event
}

// farHorizon splits the queue's heaps: an event scheduled at least this
// far ahead goes to the far heap, anything sooner to the near one. Long
// timers (a TCP retransmission timeout is armed on every segment and
// almost never fires) and wide-area packet hops then wait in the far heap
// without deepening the near heap that most dispatches pop from.
const farHorizon = Time(Millisecond)

// laneSlots is the number of delay lanes; a power of two, so laneSlot
// can take the top bits of a Fibonacci hash. One more lane, at
// inboxSlot, holds cross-shard deliveries (see inject); no delay hashes
// to it.
const (
	laneBits  = 6
	laneSlots = 1 << laneBits
	inboxSlot = laneSlots
)

// laneSlot hashes a positive delay to its lane slot.
func laneSlot(d Time) int {
	return int(uint64(d) * 0x9e3779b97f4a7c15 >> (64 - laneBits))
}

// lane queues the events that wait behind a lane head, all scheduled with
// one delay d, in a ring whose capacity stays below twice the lane's peak
// length (or minRingCap), even when the lane never empties. The ring
// does not hold the head, which sits in the heap d selects.
type lane struct {
	d Time // the lane's delay; 0 while the slot is free
	ring[event]
}

// ring is a FIFO ring buffer that grows by doubling and never shrinks. A
// popped slot is zeroed, so the ring keeps no reference to an item it
// has handed out.
type ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest item
	n    int // items queued
}

const minRingCap = 8

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(2*len(r.buf), minRingCap))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Engine is a discrete-event simulator. Create one with NewEngine, spawn
// processes and schedule events, then call Run.
//
// Events run in (time, seq) order, where seq counts scheduling calls.
// The queue is a k-way merge of sorted streams:
//
//   - fifo holds events scheduled for the current instant while it
//     executes. Every heap entry at t == now predates (has a smaller seq
//     than) every fifo entry, so the run loop drains same-time heap
//     entries first and then the fifo in append order, without heap
//     traffic for same-instant bursts (Kill handshakes, Cond wakeups,
//     After(0) chains).
//   - lanes hold events that share one positive delay d. At hashes d to
//     a slot; a live lane with the same d takes the event at its tail,
//     with no heap operation. Because now never decreases and seq always
//     increases, t = now + d and seq both grow along a lane, so every
//     lane is already sorted by (t, seq). Only a lane's head sits in a
//     heap, always the one its delay selects; popping it replaces that
//     heap's root with the lane's next event (one sift-down instead of a
//     pop plus a push), and popping a lane's last event frees its slot.
//   - the inbox lane holds the cross-shard deliveries a ParallelEngine
//     injects at a window barrier. They arrive in (t, seq) order and all
//     run before the next barrier, so the inbox is sorted as it fills
//     and merges like a delay lane, its head in near.
//   - near and far are 4-ary min-heaps of lane heads and of stray events
//     (those whose slot holds another delay) with t after now, plus,
//     transiently, events at now that were scheduled before time
//     advanced here. An event scheduled farHorizon or more ahead goes to
//     far, any other to near; dispatch takes the earlier of the two
//     roots.
//
// Merging sorted streams through heaps of their heads yields exactly
// the (time, seq) total order of a single heap of all events.
//
// An Engine is not safe for concurrent use from outside its own processes;
// all interaction must happen from processes, event callbacks, or before/after Run.
type Engine struct {
	now      Time
	near     eventHeap
	far      eventHeap
	lanes    [laneSlots + 1]lane
	fifo     []event
	fifoHead int
	seq      int64
	procs    map[*Proc]struct{}
	stopped  bool
	rec      *trace.Recorder
	// baseSeed is the user-level seed shared by every shard of a run:
	// DeriveRand mixes it with entity labels so derived streams are
	// identical at any shard count (see DeriveRand).
	baseSeed int64
	// pe and shard bind this engine into a ParallelEngine; nil/0 for a
	// stand-alone serial engine.
	pe    *ParallelEngine
	shard int
	// dispatched counts executed events, for events/sec reporting.
	dispatched int64
	// waiterFree pools Cond waiters for processes on this engine.
	waiterFree *waiter
}

// NewEngine returns an engine whose DeriveRand streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		procs:    make(map[*Proc]struct{}),
		baseSeed: seed,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// DeriveRand returns a deterministic random stream for a named entity.
// The stream's seed mixes the run's base seed with a hash of label only —
// never with build order or shard identity — so a given entity draws the
// same sequence no matter how the model is partitioned across shards.
// Each call returns a fresh stream positioned at its start; callers that
// need a persistent per-entity stream must hold on to the result.
func (e *Engine) DeriveRand(label string) *rand.Rand {
	// FNV-1a over the label, folded into the base seed.
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	seed := int64(h ^ uint64(e.baseSeed)*0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(seed))
}

// Parallel returns the ParallelEngine this engine is a shard of, or nil.
func (e *Engine) Parallel() *ParallelEngine { return e.pe }

// Dispatched returns the number of events this engine has executed.
func (e *Engine) Dispatched() int64 { return e.dispatched }

// SendTo schedules fn on engine dst, d from now. On the same engine it is
// exactly After; across shards of one ParallelEngine it becomes a
// conservative cross-shard Send, which requires d to be at least the
// engine's lookahead. Engines not related through a common ParallelEngine
// cannot exchange events and panic.
func (e *Engine) SendTo(dst *Engine, d Duration, fn func()) {
	if dst == e {
		e.After(d, fn)
		return
	}
	if e.pe == nil || e.pe != dst.pe {
		panic("simcore: SendTo between unrelated engines")
	}
	e.pe.Send(e.shard, dst.shard, e.now.Add(d), fn)
}

// SetRecorder attaches a structured trace recorder (nil detaches). The
// recorder's clock is bound to the engine's virtual time, so every record
// carries the simulated timestamp of its emission.
func (e *Engine) SetRecorder(r *trace.Recorder) {
	e.rec = r
	if r != nil {
		r.SetClock(func() int64 { return int64(e.now) })
	}
}

// Recorder returns the attached trace recorder. It may be nil; trace
// emission methods are nil-safe, so call sites can use it unguarded:
//
//	if rec := eng.Recorder(); rec.Enabled(trace.CatNet) { rec.Event(...) }
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error and panics: it would silently corrupt causality.
//
// Events at the current instant skip the heap entirely: they are appended
// to a FIFO that the run loop drains in order. This preserves the (time,
// seq) total order because time never advances while the FIFO is
// non-empty, so each FIFO entry's seq exceeds that of any heap entry at
// the same time. Later events join the delay lane of t - now when one is
// live, and the near or far heap otherwise (see Engine).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simcore: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := event{t: t, seq: e.seq, fn: fn}
	d := t - e.now
	if d == 0 {
		e.fifo = append(e.fifo, ev)
		return
	}
	slot := laneSlot(d)
	switch l := &e.lanes[slot]; l.d {
	case d:
		l.push(ev)
	case 0:
		l.d = d
		e.heapFor(d).push(heapEntry{event: ev, lane: int32(slot) + 1})
	default:
		e.heapFor(d).push(heapEntry{event: ev})
	}
}

// inject schedules a cross-shard delivery at a window barrier; see
// ParallelEngine.deliver. The barrier injects each window's deliveries
// in (t, source shard, send seq) order and every one of them runs in the
// window the barrier opens, so the inbox lane is empty at each barrier
// and sorted by (t, seq) as it fills: it takes the event at its tail,
// and only its head waits in the near heap.
func (e *Engine) inject(t Time, fn func()) {
	e.seq++
	ev := event{t: t, seq: e.seq, fn: fn}
	l := &e.lanes[inboxSlot]
	if l.d != 0 {
		l.push(ev)
		return
	}
	l.d = 1 // live: pop frees it with the last event
	e.near.push(heapEntry{event: ev, lane: inboxSlot + 1})
}

// heapFor returns the heap that holds events scheduled d ahead.
func (e *Engine) heapFor(d Time) *eventHeap {
	if d >= farHorizon {
		return &e.far
	}
	return &e.near
}

// nextHeap returns the heap whose root runs first, or nil when both are
// empty.
func (e *Engine) nextHeap() *eventHeap {
	switch {
	case len(e.far) == 0:
		if len(e.near) == 0 {
			return nil
		}
		return &e.near
	case len(e.near) == 0 || e.far[0].before(&e.near[0].event):
		return &e.far
	}
	return &e.near
}

// eventHeap is a 4-ary min-heap in (time, seq) order.
type eventHeap []heapEntry

// push inserts he, sifting up with hole shifting.
func (h *eventHeap) push(he heapEntry) {
	*h = append(*h, heapEntry{})
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if hh[p].before(&he.event) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = he
}

// pop removes and returns h's minimum event. A lane head is replaced at
// the root by its lane's next event; the lane's last event frees its
// slot.
func (e *Engine) pop(h *eventHeap) event {
	hh := *h
	top := hh[0]
	if top.lane != 0 {
		l := &e.lanes[top.lane-1]
		if l.n > 0 {
			hh.siftDown(heapEntry{event: l.pop(), lane: top.lane})
			return top.event
		}
		l.d = 0
	}
	n := len(hh) - 1
	last := hh[n]
	hh[n] = heapEntry{} // release the fn reference
	*h = hh[:n]
	if n > 0 {
		hh[:n].siftDown(last)
	}
	return top.event
}

// siftDown places he starting from the root, shifting smaller children up.
func (h eventHeap) siftDown(he heapEntry) {
	n := len(h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[m].event) {
				m = c
			}
		}
		if !h[m].before(&he.event) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = he
}

// pending reports the number of scheduled events.
func (e *Engine) pending() int {
	n := len(e.near) + len(e.far) + len(e.fifo) - e.fifoHead
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simcore: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Stop ends the simulation: Run returns after the current event completes.
// Pending events are discarded.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// DeadlockError is returned by Run when the event queue drains while
// processes are still blocked: nothing can ever wake them.
type DeadlockError struct {
	// Blocked lists the names of the permanently blocked processes.
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simcore: deadlock: %d process(es) blocked forever: %s",
		len(d.Blocked), strings.Join(d.Blocked, ", "))
}

// Run executes events until the queue is empty or Stop is called, then shuts
// down any remaining parked processes. If the queue drained while
// non-daemon processes were still blocked, Run returns a *DeadlockError
// (after shutdown); otherwise nil.
func (e *Engine) Run() error {
	return e.RunUntil(maxTime)
}

// RunUntil executes events with time ≤ limit, then stops. Events beyond the
// limit remain unexecuted; parked processes are shut down as in Run.
func (e *Engine) RunUntil(limit Time) error {
	end := limit + 1 // t ≤ limit ⇔ t < limit+1
	if end < limit {
		end = limit // limit is the largest Time; only an event at exactly it is left
	}
	defer shutdownOnPanic(e)
	e.runWindow(end)
	var blocked []string
	for p := range e.procs {
		if !p.daemon {
			blocked = append(blocked, p.name)
		}
	}
	sort.Strings(blocked)
	e.shutdown()
	if len(blocked) > 0 && !e.stopped && e.pending() == 0 {
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// nextEventTime reports the time of the earliest pending event, or
// ok=false when nothing is scheduled. The FIFO only holds events for the
// current instant, so a non-empty FIFO means the next event is at now;
// lane events never precede their lane's head in its heap.
func (e *Engine) nextEventTime() (t Time, ok bool) {
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	h := e.nextHeap()
	if h == nil {
		return 0, false
	}
	return (*h)[0].t, true
}

// runWindow is the dispatch loop: it executes events with time strictly
// before end, or until Stop. RunUntil runs one window ending just past
// its limit; a ParallelEngine runs one conservative-PDES time window per
// call on each shard and does the end-of-run bookkeeping (blocked-process
// collection, shutdown) itself. The strict bound is what makes windows
// composable: an event executing at t < end may schedule locally at any
// t' ≥ now, and cross-shard events injected later are guaranteed to be
// at ≥ end, so they can never be in this window's past. Same-instant
// FIFO entries run whatever end is, since they are at now.
func (e *Engine) runWindow(end Time) {
	for !e.stopped {
		var ev event
		h := e.nextHeap()
		switch {
		case e.fifoHead < len(e.fifo) && (h == nil || (*h)[0].t != e.now):
			ev = e.fifo[e.fifoHead]
			e.fifo[e.fifoHead] = event{} // release the fn reference
			e.fifoHead++
			if e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.fifoHead = 0
			}
		case e.fifoHead < len(e.fifo) || (h != nil && (*h)[0].t < end):
			// Heap entries at the current instant were scheduled before
			// any FIFO entry and run first; out-of-window events stay
			// queued.
			ev = e.pop(h)
			e.now = ev.t
		default:
			return
		}
		if e.rec.Enabled(trace.CatEngine) {
			e.rec.Dispatch(int64(e.now))
		}
		e.dispatched++
		ev.fn()
	}
}

// shutdown aborts all parked processes, in id order, so their coroutines
// finish. Each pass snapshots and sorts the survivors once; deferred
// cleanup in an aborted process may spawn new processes (always with
// higher ids), which the next pass picks up.
func (e *Engine) shutdown() {
	for len(e.procs) > 0 {
		batch := make([]*Proc, 0, len(e.procs))
		for p := range e.procs {
			batch = append(batch, p)
		}
		sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
		for _, p := range batch {
			if _, live := e.procs[p]; live {
				e.abort(p)
			}
		}
	}
}

// shutdownOnPanic, deferred by both engines' RunUntil, handles a panic
// unwinding the run (a process's, re-raised with its name, or an
// event's): it aborts every shard's parked processes, as shutdown does
// at a normal end, so their coroutines do not outlive the run, then
// re-raises the same value. The process that panicked is already dead
// but still listed; its entry is dropped first, since abort only takes
// parked processes.
func shutdownOnPanic(shards ...*Engine) {
	r := recover()
	if r == nil {
		return
	}
	for _, e := range shards {
		for p := range e.procs {
			if p.state == procDead {
				delete(e.procs, p)
			}
		}
		e.shutdown()
	}
	panic(r)
}

// Kill condemns a process: at the current instant (after events already
// queued for it) the process is aborted at its blocking point and
// unwinds, running any deferred cleanup in process functions.
// Wakeups already scheduled for the victim are discarded, and Cond
// signals pass it over, so killing a process never strands a signal or
// corrupts the event order. Killing an exited or already-condemned
// process is a no-op. Safe to call from event callbacks and from other
// processes (including the victim itself).
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.killed || p.state == procDead {
		return
	}
	p.killed = true
	if e.rec.Enabled(trace.CatProc) {
		e.rec.Event(trace.CatProc, "kill", trace.Attr{Detail: p.name})
	}
	// The abort switch must run from the engine's event loop — never
	// from another process — so route it through the event queue.
	// The victim may exit before delivery; it cannot be running then,
	// since events run only while every process is parked or dead.
	e.At(e.now, func() {
		if p.state == procParked {
			e.abort(p)
		}
	})
}

// abort resumes p with the abort flag; p's park panics with errAborted,
// which the coroutine body recovers, ending the coroutine. A process that
// never ran has no coroutine and simply dies.
func (e *Engine) abort(p *Proc) {
	if p.state != procParked {
		panic("simcore: aborting a process that is not parked")
	}
	if e.rec.Enabled(trace.CatProc) {
		e.rec.Event(trace.CatProc, "abort", trace.Attr{Detail: p.name})
	}
	delete(e.procs, p)
	if p.next == nil {
		p.state = procDead
		return
	}
	p.state, p.aborting = procRunning, true
	p.next()
}
