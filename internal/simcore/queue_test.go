package simcore

import "testing"

// TestQueueRingWraparound drives the ring through wraparound and then
// grows it while wrapped: FIFO order must survive both.
func TestQueueRingWraparound(t *testing.T) {
	q := NewQueue[int](NewEngine(1))
	next, want := 0, 0
	get := func() {
		t.Helper()
		if q.Len() == 0 {
			t.Fatalf("queue empty; want %v", want)
		}
		if v := q.items.pop(); v != want {
			t.Fatalf("pop = %v; want %v", v, want)
		}
		want++
	}
	put := func(n int) {
		for range n {
			q.TryPut(next)
			next++
		}
	}
	put(minRingCap)
	for range 3 {
		get()
	}
	put(3) // fills the ring with its tail before its head
	if q.items.head == 0 || q.items.n != len(q.items.buf) {
		t.Fatalf("ring not full and wrapped: head %d, %d of %d", q.items.head, q.items.n, len(q.items.buf))
	}
	put(5) // grows while wrapped
	if len(q.items.buf) != 2*minRingCap {
		t.Fatalf("ring len %d after growing once", len(q.items.buf))
	}
	for range 100 { // many laps of the grown ring
		put(3)
		get()
		get()
		get()
	}
	for q.Len() > 0 {
		get()
	}
	if want != next {
		t.Fatalf("got %d items, put %d", want, next)
	}
}

// TestQueuePopZeroesSlot checks that the queue keeps no reference to an
// item it handed out, so a pooled payload is never aliased by a stale
// slot and a large one is not kept alive.
func TestQueuePopZeroesSlot(t *testing.T) {
	q := NewQueue[*int](NewEngine(1))
	for round := range 3 {
		for i := range 2*minRingCap + round {
			q.TryPut(&i)
		}
		for q.Len() > 1 {
			q.items.pop()
		}
		live := 0
		for _, p := range q.items.buf {
			if p != nil {
				live++
			}
		}
		if live != 1 {
			t.Fatalf("round %d: %d non-nil slots for 1 queued item", round, live)
		}
		q.items.pop()
	}
}
