// Package npb implements models of the NAS Parallel Benchmarks 2.3 used
// to validate the MicroGrid (paper §3.3): EP, MG, LU, BT and IS, in
// classes S, W and A.
//
// Each kernel reproduces the real benchmark's parallel structure — the
// data decomposition, the exchange pattern, the message sizes implied by
// the partitioning math, and the synchronization frequency — while the
// floating-point work itself is modeled as calibrated Compute bursts (the
// MicroGrid measures timing, not numerics). The calibration constants are
// set so 4-process class-A runs on the paper's 533 MHz Alpha model land in
// the right magnitude and, more importantly, the right *ordering*
// (BT > LU > EP > MG ≈ IS) with the right bottleneck (IS network-bound,
// EP compute-bound, LU synchronization-sensitive).
package npb

import (
	"fmt"
	"sort"

	"microgrid/internal/decomp"
	"microgrid/internal/mpi"
)

// Class selects the problem size, as in NPB (S = small test, W =
// workstation, A = the paper's validation size).
type Class byte

// Problem classes.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	// ClassB extends beyond the paper's runs (the suite defines it).
	ClassB Class = 'B'
)

// Hooks lets instrumentation (Autopilot sensors) observe kernel progress.
type Hooks struct {
	// Progress is called by every rank as iterations complete, with a
	// benchmark-specific counter value (the "periodic function of counter
	// variables" of the paper's Fig. 17).
	Progress func(rank, iter int, value float64)
}

func (h *Hooks) progress(rank, iter int, value float64) {
	if h != nil && h.Progress != nil {
		h.Progress(rank, iter, value)
	}
}

// Params configures one run.
type Params struct {
	Class Class
	Hooks *Hooks
}

// RunFunc executes a kernel over an MPI communicator.
type RunFunc func(c *mpi.Comm, p Params) error

// Benchmarks is the kernel registry. SP is part of the suite and
// available here, though the paper's figures (and Names) use only the
// other five.
var Benchmarks = map[string]RunFunc{
	"EP": RunEP,
	"MG": RunMG,
	"LU": RunLU,
	"BT": RunBT,
	"IS": RunIS,
	"SP": RunSP,
}

// Names returns the benchmark names in the paper's figure order.
func Names() []string { return []string{"EP", "BT", "LU", "MG", "IS"} }

// Get returns a kernel by (case-sensitive) name.
func Get(name string) (RunFunc, error) {
	fn, ok := Benchmarks[name]
	if !ok {
		var known []string
		for k := range Benchmarks {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("npb: unknown benchmark %q (have %v)", name, known)
	}
	return fn, nil
}

// Decomposition helpers re-exported from the shared package for the
// kernels' use.
var (
	factor2    = decomp.Factor2
	factor3    = decomp.Factor3
	chunk      = decomp.Chunk
	chunkInt64 = decomp.Chunk64
)
