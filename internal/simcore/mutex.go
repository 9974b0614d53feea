package simcore

// Mutex is a FIFO mutual-exclusion lock in simulated time: the analog of
// a kernel semaphore for simulation processes. Unlike sync.Mutex it never
// blocks a real goroutine outside the engine's control — waiters park
// through the event queue, preserving determinism.
type Mutex struct {
	cond  *Cond
	held  bool
	owner *Proc
	// Contentions counts Lock calls that had to wait.
	Contentions int64
}

// NewMutex returns an unlocked mutex bound to eng.
func NewMutex(eng *Engine) *Mutex {
	return &Mutex{cond: NewCond(eng)}
}

// Lock acquires the mutex, parking p until it is free. Acquisition order
// is FIFO among waiters.
func (m *Mutex) Lock(p *Proc) {
	if m.held {
		m.Contentions++
		for {
			m.cond.Wait(p)
			if !m.held {
				break
			}
		}
	}
	m.held = true
	m.owner = p
}

// Unlock releases the mutex and wakes the next waiter. Unlocking a free
// mutex panics, as with sync.Mutex.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("simcore: Unlock of unlocked Mutex")
	}
	m.held = false
	m.owner = nil
	m.cond.Signal(nil)
}

// ForceUnlock releases the mutex regardless of who holds it, waking the
// next waiter. It is the crash-cleanup escape hatch for a lock whose
// holder was killed mid-critical-section; on an unheld mutex it is a
// no-op.
func (m *Mutex) ForceUnlock() {
	if !m.held {
		return
	}
	m.held = false
	m.owner = nil
	m.cond.Signal(nil)
}

// Owner returns the process that holds the mutex (nil when unheld).
func (m *Mutex) Owner() *Proc { return m.owner }
