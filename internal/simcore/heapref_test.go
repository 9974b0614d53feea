package simcore

import (
	"fmt"
	"slices"
	"testing"

	"microgrid/internal/trace"
)

// The event queue as it was before delay lanes, kept verbatim in test
// code as the exact reference for the laned one: a 4-ary min-heap of
// every future event plus the same-instant FIFO, drained by the
// dispatch loop's choice in next. A shadow replays everything an Engine
// schedules into a refQueue and checks at each dispatch that the engine
// runs the event the reference would.

// refQueue is the heap-only queue: Engine's scheduling state before
// delay lanes.
type refQueue struct {
	now      Time
	heap     []event
	fifo     []event
	fifoHead int
	seq      int64
}

func (e *refQueue) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simcore: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.fifo = append(e.fifo, event{t: t, seq: e.seq, fn: fn})
		return
	}
	e.heapPush(event{t: t, seq: e.seq, fn: fn})
}

// heapPush inserts ev into the 4-ary heap, sifting up with hole shifting.
func (e *refQueue) heapPush(ev event) {
	e.heap = append(e.heap, event{})
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// heapPop removes and returns the minimum event.
func (e *refQueue) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the fn reference
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown places ev starting from the root, shifting smaller children up.
func (e *refQueue) siftDown(ev event) {
	h := e.heap
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
			if h[c].before(&h[m]) {
				m = c
			}
		}
		if !h[m].before(&ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// pending reports the number of scheduled events.
func (e *refQueue) pending() int {
	return len(e.heap) + len(e.fifo) - e.fifoHead
}

// next is the old RunUntil loop's choice of the next event with time ≤
// limit: same-instant heap entries first, then the FIFO, then the heap.
func (e *refQueue) next(limit Time) (event, bool) {
	if e.fifoHead < len(e.fifo) {
		// Heap entries at the current instant were scheduled before
		// any FIFO entry and must run first.
		if len(e.heap) > 0 && e.heap[0].t == e.now {
			return e.heapPop(), true
		}
		ev := e.fifo[e.fifoHead]
		e.fifo[e.fifoHead] = event{} // release the fn reference
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
		return ev, true
	}
	if len(e.heap) == 0 || e.heap[0].t > limit {
		// Out-of-range events stay in the heap unexecuted.
		return event{}, false
	}
	ev := e.heapPop()
	e.now = ev.t
	return ev, true
}

// dispatchRec is one dispatched event: its time, its engine sequence
// number, and the id the test gave it (-1 for events the engine or its
// processes scheduled internally).
type dispatchRec struct {
	t   Time
	seq int64
	id  int
}

// shadow mirrors one Engine's queue in a refQueue. It watches the engine
// through a recorder sink: a proc "spawn" record marks the next seq as a
// process id, and each engine "dispatch" record (emitted after the pop,
// before the callback) triggers a diff of the engine's queued events
// against the ones already fed to the reference. Events that appeared
// are fed to the reference in seq order; the one event that vanished is
// the one the engine dispatched, and the reference must pop the same.
type shadow struct {
	e        *Engine
	ref      refQueue
	known    map[int64]Time // fed to ref, not yet dispatched
	procIDs  map[int64]bool
	ids      map[int64]int
	last     int64 // highest engine seq examined
	got      []dispatchRec
	want     []dispatchRec
	mismatch string
}

// newShadow attaches a shadow to e, replacing its recorder.
func newShadow(e *Engine) *shadow {
	s := &shadow{
		e:       e,
		known:   make(map[int64]Time),
		procIDs: make(map[int64]bool),
		ids:     make(map[int64]int),
	}
	s.ref.now = e.now
	rec := trace.NewRecorder(1, trace.CatEngine|trace.CatProc)
	rec.SetSink(func(ev trace.Event) {
		switch {
		case ev.Cat == trace.CatProc && ev.Name == "spawn":
			s.procIDs[s.e.seq+1] = true
		case ev.Cat == trace.CatEngine:
			s.dispatch()
		}
	})
	e.SetRecorder(rec)
	return s
}

// at schedules fn on the engine at t and tags the event with id.
func (s *shadow) at(t Time, id int, fn func()) {
	s.e.At(t, fn)
	s.ids[s.e.seq] = id
}

// queued returns every event the engine holds: both heaps, lanes and
// FIFO.
func (s *shadow) queued() map[int64]Time {
	e := s.e
	q := make(map[int64]Time, e.pending())
	for _, h := range []eventHeap{e.near, e.far} {
		for _, he := range h {
			q[he.seq] = he.t
		}
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		for k := 0; k < l.n; k++ {
			ev := l.buf[(l.head+k)&(len(l.buf)-1)]
			q[ev.seq] = ev.t
		}
	}
	for _, ev := range e.fifo[e.fifoHead:] {
		q[ev.seq] = ev.t
	}
	return q
}

// sync feeds events the engine scheduled since the last call to the
// reference, and returns the seq of the one known event no longer
// queued (-1 if none).
func (s *shadow) sync() int64 {
	q := s.queued()
	vanished := int64(-1)
	vanish := func(seq int64) {
		if vanished >= 0 {
			s.fail("events %d and %d both left the queue in one dispatch", vanished, seq)
		}
		vanished = seq
	}
	if s.e.now > s.ref.now {
		s.ref.now = s.e.now
	}
	for seq := s.last + 1; seq <= s.e.seq; seq++ {
		if s.procIDs[seq] {
			continue
		}
		t, ok := q[seq]
		if !ok {
			// Scheduled and dispatched since the last sync: only an
			// event at the current instant can be.
			vanish(seq)
			t = s.e.now
		}
		s.ref.seq = seq - 1
		s.ref.At(t, nil)
		s.known[seq] = t
	}
	s.last = s.e.seq
	for seq := range s.known {
		if _, ok := q[seq]; !ok && seq != vanished {
			vanish(seq)
		}
	}
	return vanished
}

func (s *shadow) dispatch() {
	seq := s.sync()
	if seq < 0 {
		s.fail("dispatch at %v with no event gone from the queue", s.e.now)
		return
	}
	delete(s.known, seq)
	s.got = append(s.got, dispatchRec{t: s.e.now, seq: seq, id: s.id(seq)})
	ev, ok := s.ref.next(maxTime)
	if !ok {
		s.fail("engine dispatched seq %d at %v; reference queue is empty", seq, s.e.now)
		return
	}
	s.want = append(s.want, dispatchRec{t: ev.t, seq: ev.seq, id: s.id(ev.seq)})
}

func (s *shadow) id(seq int64) int {
	if id, ok := s.ids[seq]; ok {
		return id
	}
	return -1
}

func (s *shadow) fail(format string, args ...any) {
	if s.mismatch == "" {
		s.mismatch = fmt.Sprintf(format, args...)
	}
}

// check compares the dispatch sequences and the still-queued events of
// engine and reference. Call it only while the engine is not running.
func (s *shadow) check(t *testing.T, label string) {
	t.Helper()
	if s.mismatch != "" {
		t.Fatalf("%s: %s", label, s.mismatch)
	}
	if s.sync() >= 0 {
		t.Fatalf("%s: an event left the engine's queue without being dispatched", label)
	}
	for i := range s.got {
		if i >= len(s.want) || s.got[i] != s.want[i] {
			t.Fatalf("%s: dispatch %d is %+v, reference %+v", label, i, s.got[i], s.want[i:min(i+1, len(s.want))])
		}
	}
	if len(s.want) != len(s.got) {
		t.Fatalf("%s: engine dispatched %d events, reference %d", label, len(s.got), len(s.want))
	}
	if s.e.pending() != s.ref.pending() {
		t.Fatalf("%s: engine has %d events pending, reference %d", label, s.e.pending(), s.ref.pending())
	}
	var rest []int64
	for seq := range s.known {
		rest = append(rest, seq)
	}
	slices.Sort(rest)
	var refRest []int64
	for _, ev := range s.ref.heap {
		refRest = append(refRest, ev.seq)
	}
	for _, ev := range s.ref.fifo[s.ref.fifoHead:] {
		refRest = append(refRest, ev.seq)
	}
	slices.Sort(refRest)
	if !slices.Equal(rest, refRest) {
		t.Fatalf("%s: engine still holds %v, reference %v", label, rest, refRest)
	}
}
