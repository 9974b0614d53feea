package simcore

// waiter is one parked process waiting on a Cond, and also the event that
// delivers its wakeup: run is bound once, so Signal schedules no closure.
// The fired flag resolves races between Signal and a timeout event:
// whichever happens first claims the waiter.
type waiter struct {
	c *Cond
	p *Proc
	// v is the value Signal hands the process.
	v     any
	fired bool
	// timedOut is set when the wakeup came from the timeout path.
	timedOut bool
	// pooled marks a Wait waiter, which returns to its engine's free
	// list on delivery. A WaitTimeout waiter is not pooled: its timeout
	// event can outlive the wait and still reads it.
	pooled bool
	run    func()
	free   *waiter
}

// newWaiter takes a waiter for p from the engine-local free list.
func (e *Engine) newWaiter(c *Cond, p *Proc) *waiter {
	w := e.waiterFree
	if w == nil {
		w = &waiter{pooled: true}
		w.run = w.deliver
	} else {
		e.waiterFree = w.free
		w.free = nil
	}
	w.c, w.p = c, p
	return w
}

// freeWaiter returns a pooled waiter to its engine's free list.
func (e *Engine) freeWaiter(w *waiter) {
	w.c, w.p, w.v, w.fired = nil, nil, nil, false
	w.free = e.waiterFree
	e.waiterFree = w
}

// deliver resumes the signalled process. A pooled waiter goes back to the
// free list first, so the process can reuse it for its next Wait.
func (w *waiter) deliver() {
	c, p, v := w.c, w.p, w.v
	if w.pooled {
		c.eng.freeWaiter(w)
	}
	if p.killed || p.state == procDead {
		// The chosen waiter was killed between Signal and delivery; the
		// signal must not be lost (it may carry a mutex release or queue
		// item), so pass it on.
		c.Signal(v)
		return
	}
	c.eng.resumeProc(p, v)
}

// Cond is a FIFO condition/wait queue in simulated time. Unlike sync.Cond
// there is no associated lock: the whole simulation is single-threaded, so
// state inspected before Wait cannot change until the process parks.
type Cond struct {
	eng *Engine
	// waiters[head:] is the wait queue, oldest first. The backing array
	// is reused: head advances on Signal and both reset when it drains.
	waiters []*waiter
	head    int
}

// NewCond returns a condition queue bound to eng.
func NewCond(eng *Engine) *Cond { return &Cond{eng: eng} }

// Len reports the number of processes currently waiting.
func (c *Cond) Len() int { return len(c.waiters) - c.head }

// push appends w to the wait queue, compacting a queue that never
// drained before the append would grow it.
func (c *Cond) push(w *waiter) {
	if len(c.waiters) == cap(c.waiters) && c.head > 0 {
		n := copy(c.waiters, c.waiters[c.head:])
		c.waiters, c.head = c.waiters[:n], 0
	}
	c.waiters = append(c.waiters, w)
}

// Wait parks p until Signal or Broadcast wakes it. It returns the value
// passed to Signal (nil for Broadcast).
func (c *Cond) Wait(p *Proc) any {
	c.push(c.eng.newWaiter(c, p))
	return p.park()
}

// WaitTimeout parks p until woken or until d elapses. It reports the value
// passed by the waker and whether the wait timed out.
func (c *Cond) WaitTimeout(p *Proc, d Duration) (any, bool) {
	w := &waiter{c: c, p: p}
	w.run = w.deliver
	c.push(w)
	c.eng.After(d, func() {
		if w.fired {
			return
		}
		w.fired = true
		w.timedOut = true
		c.remove(w)
		c.eng.resumeProc(p, nil)
	})
	v := p.park()
	return v, w.timedOut
}

func (c *Cond) remove(w *waiter) {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the longest-waiting process, passing it v. It reports
// whether any process was waiting. The wakeup is delivered through the
// event queue at the current instant, preserving determinism.
func (c *Cond) Signal(v any) bool {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = nil
		if c.head++; c.head == len(c.waiters) {
			c.waiters, c.head = c.waiters[:0], 0
		}
		if w.fired || w.p.killed || w.p.state == procDead {
			// Killed waiters are skipped without consuming the signal.
			if w.pooled {
				c.eng.freeWaiter(w)
			}
			continue
		}
		w.fired = true
		w.v = v
		c.eng.At(c.eng.now, w.run)
		return true
	}
	return false
}

// Broadcast wakes every waiting process (with a nil value).
func (c *Cond) Broadcast() int {
	n := 0
	for c.Signal(nil) {
		n++
	}
	return n
}

// Queue is an unbounded FIFO message queue in simulated time, the basic
// producer/consumer channel between simulation processes. Items live by
// value in a ring, so a warm queue moves them without allocating and keeps
// none it has handed out.
type Queue[T any] struct {
	eng      *Engine
	items    ring[T]
	notEmpty *Cond
	closed   bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](eng *Engine) *Queue[T] {
	return &Queue[T]{eng: eng, notEmpty: NewCond(eng)}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.n }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue closed: pending and future Gets on an empty queue
// return ok=false; TryPuts fail.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
}

// TryPut appends v unless the queue is closed, reporting success. It
// never blocks.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		return false
	}
	q.items.push(v)
	q.notEmpty.Signal(nil)
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.items.n == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.items.n == 0 {
		return v, false
	}
	return q.items.pop(), true
}

// GetTimeout is Get with a deadline d from now; timedOut reports expiry.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (v T, ok, timedOut bool) {
	deadline := q.eng.now.Add(d)
	for q.items.n == 0 && !q.closed {
		remain := deadline.Sub(q.eng.now)
		if remain <= 0 {
			return v, false, true
		}
		if _, to := q.notEmpty.WaitTimeout(p, remain); to {
			if q.items.n > 0 || q.closed {
				break
			}
			return v, false, true
		}
	}
	if q.items.n == 0 {
		return v, false, false
	}
	return q.items.pop(), true, false
}
