// Package service is the MicroGrid's serving layer: a long-running
// campaign service (cmd/mgridd) that accepts declarative .scenario
// submissions over HTTP/JSON, executes them on the bounded
// internal/runner worker pool behind a deterministic fair-share queue,
// memoizes results in a content-addressed cache keyed by the canonical
// scenario hash, and exposes Prometheus-style service metrics. It is the
// piece that turns the one-shot CLI simulator into a shared scientific
// instrument: many submitters, one simulation pool, overlapping
// submissions mostly served from cache.
package service

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by FairQueue.Enqueue when the submitting
// client already has its full allowance of queued work. The server maps
// it to HTTP 429 — an explicit rejection, never a silent drop.
var ErrQueueFull = errors.New("service: client queue depth exceeded")

// FairQueue is a deterministic fair-share queue: round-robin across
// client keys, FIFO within a key, bounded depth per key. Clients enter
// the round-robin ring when they first have queued work, in arrival
// order, and leave it when drained; a client re-entering joins the back
// of the ring. The dequeue sequence is therefore a pure function of the
// enqueue sequence — no timestamps, no randomness — which is what makes
// queue order testable and service runs reproducible.
//
// All methods are safe for concurrent use.
type FairQueue[T any] struct {
	mu        sync.Mutex
	perClient int
	fifos     map[string][]T
	ring      []string // clients with queued work, round-robin order
	cursor    int      // next ring index to serve
	size      int
}

// NewFairQueue returns an empty queue allowing each client key at most
// perClient queued entries (values below 1 mean 1).
func NewFairQueue[T any](perClient int) *FairQueue[T] {
	if perClient < 1 {
		perClient = 1
	}
	return &FairQueue[T]{perClient: perClient, fifos: make(map[string][]T)}
}

// Enqueue appends v to client's FIFO, admitting the client to the
// round-robin ring if it had nothing queued. Returns ErrQueueFull when
// the client is at its depth bound.
func (q *FairQueue[T]) Enqueue(client string, v T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.fifos[client]) >= q.perClient {
		return ErrQueueFull
	}
	q.add(client, v)
	return nil
}

// Requeue is Enqueue without the depth bound: re-admission of work that
// was already accepted once (mgridd promotes a coalesced follower back
// into the queue when its leader is cancelled). It never fails.
func (q *FairQueue[T]) Requeue(client string, v T) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.add(client, v)
}

func (q *FairQueue[T]) add(client string, v T) {
	if len(q.fifos[client]) == 0 {
		q.ring = append(q.ring, client)
	}
	q.fifos[client] = append(q.fifos[client], v)
	q.size++
}

// Dequeue removes and returns the next entry in fair-share order: the
// head of the FIFO of the ring client at the cursor, after which the
// cursor advances one client. ok is false when the queue is empty.
func (q *FairQueue[T]) Dequeue() (v T, client string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ring) == 0 {
		return v, "", false
	}
	if q.cursor >= len(q.ring) {
		q.cursor = 0
	}
	client = q.ring[q.cursor]
	fifo := q.fifos[client]
	v, q.fifos[client] = fifo[0], fifo[1:]
	q.size--
	if len(q.fifos[client]) == 0 {
		delete(q.fifos, client)
		q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
		// The cursor now already points at the next client; only wrap.
		if q.cursor >= len(q.ring) {
			q.cursor = 0
		}
	} else {
		q.cursor = (q.cursor + 1) % len(q.ring)
	}
	return v, client, true
}

// Remove deletes the first entry (in ring order from the cursor, FIFO
// order within a client) for which match returns true, reporting whether
// one was found. The server uses it to cancel a queued-but-not-started
// run without perturbing the order of everything else.
func (q *FairQueue[T]) Remove(match func(client string, v T) bool) (T, bool) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < len(q.ring); i++ {
		ri := (q.cursor + i) % len(q.ring)
		client := q.ring[ri]
		for j, v := range q.fifos[client] {
			if !match(client, v) {
				continue
			}
			q.fifos[client] = append(q.fifos[client][:j], q.fifos[client][j+1:]...)
			q.size--
			if len(q.fifos[client]) == 0 {
				delete(q.fifos, client)
				q.ring = append(q.ring[:ri], q.ring[ri+1:]...)
				if ri < q.cursor {
					q.cursor--
				}
				if q.cursor >= len(q.ring) {
					q.cursor = 0
				}
			}
			return v, true
		}
	}
	return zero, false
}

// Len returns the total number of queued entries.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Depth returns how many entries the given client has queued.
func (q *FairQueue[T]) Depth(client string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.fifos[client])
}
