// Package memmodel implements the MicroGrid's memory-capacity enforcement
// (paper §3.2.1): each virtual host carries a memory limit from its GIS
// record, and processes assigned to it can allocate until the limit is
// reached, less a fixed per-process overhead — reproducing the memory
// micro-benchmark of Figure 5, where a process could always allocate about
// 1 KB less than the specified limitation.
package memmodel

import (
	"errors"
	"fmt"
)

// ProcessOverheadBytes is the bookkeeping memory charged to every process
// ("about 1KB ... due to memory overhead for the process").
const ProcessOverheadBytes = 1024

// ErrOutOfMemory is returned when an allocation would exceed the limit.
var ErrOutOfMemory = errors.New("memmodel: out of memory")

// Limiter enforces a memory capacity for one virtual host.
type Limiter struct {
	limit int64
	used  int64
	procs map[string]*ProcMem
	// Peak tracks the high-water mark across the host.
	Peak int64
}

// NewLimiter creates a limiter with the given capacity in bytes.
func NewLimiter(limitBytes int64) *Limiter {
	if limitBytes < 0 {
		panic(fmt.Sprintf("memmodel: negative limit %d", limitBytes))
	}
	return &Limiter{limit: limitBytes, procs: make(map[string]*ProcMem)}
}

// Limit returns the configured capacity in bytes.
func (l *Limiter) Limit() int64 { return l.limit }

// Used returns the bytes currently charged against the limit.
func (l *Limiter) Used() int64 { return l.used }

// ProcMem is one process's memory account on a virtual host.
type ProcMem struct {
	l     *Limiter
	name  string
	used  int64
	freed bool
}

// NewProcess registers a process, charging ProcessOverheadBytes. It fails
// if even the overhead does not fit.
func (l *Limiter) NewProcess(name string) (*ProcMem, error) {
	if _, dup := l.procs[name]; dup {
		return nil, fmt.Errorf("memmodel: duplicate process %q", name)
	}
	if l.used+ProcessOverheadBytes > l.limit {
		return nil, fmt.Errorf("%w: process overhead (%d B) exceeds remaining capacity",
			ErrOutOfMemory, ProcessOverheadBytes)
	}
	p := &ProcMem{l: l, name: name, used: ProcessOverheadBytes}
	l.procs[name] = p
	l.charge(ProcessOverheadBytes)
	return p, nil
}

func (l *Limiter) charge(n int64) {
	l.used += n
	if l.used > l.Peak {
		l.Peak = l.used
	}
}

// Malloc charges n bytes to the process, or returns ErrOutOfMemory leaving
// the account unchanged.
func (p *ProcMem) Malloc(n int64) error {
	if p.freed {
		return errors.New("memmodel: Malloc after Release")
	}
	if n < 0 {
		return fmt.Errorf("memmodel: negative allocation %d", n)
	}
	if p.l.used+n > p.l.limit {
		return ErrOutOfMemory
	}
	p.used += n
	p.l.charge(n)
	return nil
}

// Used returns the bytes charged to this process, including overhead.
func (p *ProcMem) Used() int64 { return p.used }

// Release ends the process, returning all its memory.
func (p *ProcMem) Release() {
	if p.freed {
		return
	}
	p.freed = true
	p.l.used -= p.used
	p.used = 0
	delete(p.l.procs, p.name)
}

// MaxAllocatable runs the paper's memory micro-benchmark against a fresh
// process: allocate in chunkBytes steps until out-of-memory, returning the
// total successfully allocated (excluding the process overhead).
func MaxAllocatable(limitBytes, chunkBytes int64) int64 {
	l := NewLimiter(limitBytes)
	p, err := l.NewProcess("membench")
	if err != nil {
		return 0
	}
	var total int64
	for p.Malloc(chunkBytes) == nil {
		total += chunkBytes
	}
	// Refine the final partial chunk down to the byte, as a byte-granular
	// allocator would.
	for chunk := chunkBytes / 2; chunk >= 1; chunk /= 2 {
		for p.Malloc(chunk) == nil {
			total += chunk
		}
	}
	return total
}
