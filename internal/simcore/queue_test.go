package simcore

import (
	"fmt"
	"reflect"
	"testing"
)

// TestQueueRingWraparound drives the ring through wraparound and then
// grows it while wrapped: FIFO order must survive both.
func TestQueueRingWraparound(t *testing.T) {
	q := NewQueue[int](NewEngine(1), 0)
	next, want := 0, 0
	get := func() {
		t.Helper()
		if q.Len() == 0 {
			t.Fatalf("queue empty; want %v", want)
		}
		if v := q.pop(); v != want {
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
	q := NewQueue[*int](NewEngine(1), 0)
	for round := range 3 {
		for i := range 2*minRingCap + round {
			q.TryPut(&i)
		}
		for q.Len() > 1 {
			q.pop()
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
		q.pop()
	}
}

// TestQueueBoundedWakeOrder pins the wake order of a capacity-bounded
// queue under interleaved blocking Puts and Gets from several processes:
// who unblocks when, and which item each Get returns. The log was
// recorded with the slice-backed queue the ring buffer replaced.
func TestQueueBoundedWakeOrder(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 2)
	var log []string
	for i := range 3 {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := range 4 {
				q.Put(p, 10*i+j)
				log = append(log, fmt.Sprintf("%v p%d put %d", p.Now(), i, 10*i+j))
				if j%2 == i%2 {
					p.Sleep(Duration(i+1) * Microsecond)
				}
			}
		})
	}
	for i := range 2 {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			for range 6 {
				v, ok := q.Get(p)
				log = append(log, fmt.Sprintf("%v c%d got %d %v", p.Now(), i, v, ok))
				p.Sleep(Duration(3-i) * Microsecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, boundedWakeOrder) {
		t.Errorf("wake order changed:\n got %q\nwant %q", log, boundedWakeOrder)
	}
}

var boundedWakeOrder = []string{
	"0s p0 put 0",
	"0s p1 put 10",
	"0s c0 got 0 true",
	"0s c1 got 10 true",
	"0s p1 put 11",
	"0s p2 put 20",
	"2µs c1 got 11 true",
	"2µs p1 put 12",
	"3µs c0 got 20 true",
	"3µs p2 put 21",
	"4µs c1 got 12 true",
	"4µs p0 put 1",
	"6µs c0 got 21 true",
	"6µs c1 got 1 true",
	"6µs p2 put 22",
	"6µs p1 put 13",
	"8µs c1 got 22 true",
	"8µs p0 put 2",
	"9µs c0 got 13 true",
	"9µs p2 put 23",
	"10µs c1 got 2 true",
	"10µs p0 put 3",
	"12µs c0 got 23 true",
	"15µs c0 got 3 true",
}
