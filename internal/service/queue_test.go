package service

import (
	"errors"
	"fmt"
	"testing"
)

// drain pops everything, returning "client:value" strings in order.
func drain(t *testing.T, q *FairQueue[int]) []string {
	t.Helper()
	var out []string
	for {
		v, c, ok := q.Dequeue()
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%s:%d", c, v))
	}
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dequeue order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v (first mismatch at %d)", got, want, i)
		}
	}
}

// TestFairQueueRoundRobin: interleaved enqueues from three clients
// dequeue round-robin across clients, FIFO within each client, and the
// order is a pure function of the enqueue sequence.
func TestFairQueueRoundRobin(t *testing.T) {
	for trial := 0; trial < 3; trial++ { // determinism: same input, same output
		q := NewFairQueue[int](10)
		// alice floods first; bob and carol trickle in afterwards.
		for i := 1; i <= 3; i++ {
			q.Enqueue("alice", i)
		}
		q.Enqueue("bob", 1)
		q.Enqueue("carol", 1)
		q.Enqueue("bob", 2)
		assertOrder(t, drain(t, q), []string{
			"alice:1", "bob:1", "carol:1",
			"alice:2", "bob:2",
			"alice:3",
		})
	}
}

// TestFairQueueLateArrivalJoinsBack: a client arriving mid-drain joins
// the back of the ring rather than jumping the cursor.
func TestFairQueueLateArrivalJoinsBack(t *testing.T) {
	q := NewFairQueue[int](10)
	q.Enqueue("a", 1)
	q.Enqueue("a", 2)
	q.Enqueue("b", 1)

	v, c, _ := q.Dequeue() // a:1; cursor now at b
	if c != "a" || v != 1 {
		t.Fatalf("first dequeue = %s:%d, want a:1", c, v)
	}
	q.Enqueue("c", 1) // joins the ring behind a and b
	// One turn per client per cycle: b and c each get their first turn
	// before a gets a second.
	assertOrder(t, drain(t, q), []string{"b:1", "c:1", "a:2"})
}

// TestFairQueueDrainedClientReenters: a drained client re-enqueueing is
// a fresh arrival at the back of the ring.
func TestFairQueueDrainedClientReenters(t *testing.T) {
	q := NewFairQueue[int](10)
	q.Enqueue("a", 1)
	q.Enqueue("b", 1)
	if _, c, _ := q.Dequeue(); c != "a" {
		t.Fatalf("expected a first, got %s", c)
	}
	q.Enqueue("a", 2) // a re-enters behind b
	assertOrder(t, drain(t, q), []string{"b:1", "a:2"})
}

// TestFairQueueBoundedDepth: the per-client bound rejects with
// ErrQueueFull without affecting other clients, and frees up as the
// client drains.
func TestFairQueueBoundedDepth(t *testing.T) {
	q := NewFairQueue[int](2)
	if err := q.Enqueue("a", 1); err != nil {
		t.Fatalf("enqueue 1: %v", err)
	}
	if err := q.Enqueue("a", 2); err != nil {
		t.Fatalf("enqueue 2: %v", err)
	}
	if err := q.Enqueue("a", 3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue beyond bound = %v, want ErrQueueFull", err)
	}
	if err := q.Enqueue("b", 1); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	if _, _, ok := q.Dequeue(); !ok {
		t.Fatal("dequeue failed")
	}
	if err := q.Enqueue("a", 3); err != nil {
		t.Fatalf("enqueue after drain-by-one: %v", err)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.Depth("a") != 2 || q.Depth("b") != 1 {
		t.Fatalf("depths a:%d b:%d, want a:2 b:1", q.Depth("a"), q.Depth("b"))
	}
}

// TestFairQueueRequeueBypassesBound: Requeue admits past the depth
// bound (re-admission of already-accepted work).
func TestFairQueueRequeueBypassesBound(t *testing.T) {
	q := NewFairQueue[int](1)
	q.Enqueue("a", 1)
	q.Requeue("a", 2)
	if q.Depth("a") != 2 {
		t.Fatalf("Depth = %d, want 2", q.Depth("a"))
	}
	assertOrder(t, drain(t, q), []string{"a:1", "a:2"})
}

// TestFairQueueRemove: removing a queued entry preserves the order of
// everything else, including when it empties a client mid-ring.
func TestFairQueueRemove(t *testing.T) {
	q := NewFairQueue[int](10)
	q.Enqueue("a", 1)
	q.Enqueue("a", 2)
	q.Enqueue("b", 1)
	q.Enqueue("c", 1)

	if _, ok := q.Remove(func(c string, v int) bool { return c == "a" && v == 2 }); !ok {
		t.Fatal("Remove found nothing")
	}
	if _, ok := q.Remove(func(c string, v int) bool { return c == "zzz" }); ok {
		t.Fatal("Remove matched a nonexistent client")
	}
	assertOrder(t, drain(t, q), []string{"a:1", "b:1", "c:1"})
}

// TestFairQueueRemoveSoleEntryBeforeCursor: removing the only entry of
// a client positioned before the cursor keeps the cursor on the client
// it pointed at.
func TestFairQueueRemoveSoleEntryBeforeCursor(t *testing.T) {
	q := NewFairQueue[int](10)
	q.Enqueue("a", 1)
	q.Enqueue("a", 2)
	q.Enqueue("b", 1)
	q.Enqueue("c", 1)
	if _, c, _ := q.Dequeue(); c != "a" { // cursor now at b
		t.Fatalf("expected a first, got %s", c)
	}
	if _, c, _ := q.Dequeue(); c != "b" { // b drained and leaves ring; cursor at c
		t.Fatalf("expected b second, got %s", c)
	}
	// Ring is [a c], cursor at c. Remove a (index 0, before cursor).
	if _, ok := q.Remove(func(c string, v int) bool { return c == "a" }); !ok {
		t.Fatal("Remove found nothing")
	}
	assertOrder(t, drain(t, q), []string{"c:1"})
}
