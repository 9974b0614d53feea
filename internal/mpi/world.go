package mpi

import (
	"fmt"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

// RankResult records one rank's outcome after a World run.
type RankResult struct {
	Rank int
	// Start and End are virtual timestamps around the application
	// function (after Connect and the entry barrier).
	Start, End simcore.Time
	Err        error
	// Comm exposes the rank's communicator for post-run statistics.
	Comm *Comm
}

// Elapsed is the rank's virtual run time.
func (r RankResult) Elapsed() simcore.Duration { return r.End.Sub(r.Start) }

// World launches an SPMD application across virtual hosts: one process per
// rank, connected into a Comm, synchronized by a barrier before and after
// the application function — matching how mpirun-under-Globus launched the
// paper's benchmarks.
type World struct {
	Results []RankResult
	done    int
}

// LaunchOptions tunes Launch for non-SPMD-perfect worlds.
type LaunchOptions struct {
	// SkipExitBarrier omits the barrier after the application function.
	// Required for fault-tolerant runs: a rank whose host crashed never
	// reaches the exit barrier, and survivors must not wait for it.
	SkipExitBarrier bool
}

// Launch starts fn on each host (rank i on hosts[i]). basePort
// disambiguates concurrent worlds (0 = default). The returned World
// completes when the engine runs; call Wait from a process or inspect
// Results after Engine.Run returns.
func Launch(hosts []*virtual.Host, name string, basePort netsim.Port, opt LaunchOptions, fn func(c *Comm) error) (*World, error) {
	n := len(hosts)
	if n == 0 {
		return nil, fmt.Errorf("mpi: empty host list")
	}
	w := &World{Results: make([]RankResult, n)}
	hostOf := func(r int) string { return hosts[r].Name }
	for rank := range hosts {
		rank := rank
		w.Results[rank].Rank = rank
		_, err := hosts[rank].Spawn(fmt.Sprintf("%s-rank%d", name, rank), func(p *virtual.Process) {
			res := &w.Results[rank]
			defer func() { w.done++ }()
			c, err := Connect(p, rank, n, basePort, hostOf)
			if err != nil {
				res.Err = err
				return
			}
			res.Comm = c
			if err := c.Barrier(); err != nil {
				res.Err = err
				return
			}
			res.Start = p.Gettimeofday()
			if err := fn(c); err != nil {
				res.Err = err
				return
			}
			if !opt.SkipExitBarrier {
				if err := c.Barrier(); err != nil {
					res.Err = err
					return
				}
			}
			res.End = p.Gettimeofday()
		})
		if err != nil {
			return nil, fmt.Errorf("mpi: spawn rank %d: %w", rank, err)
		}
	}
	return w, nil
}

// Done reports whether all ranks have finished.
func (w *World) Done() bool { return w.done == len(w.Results) }

// Err returns the first rank error, if any.
func (w *World) Err() error {
	for i := range w.Results {
		if err := w.Results[i].Err; err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	if !w.Done() {
		return fmt.Errorf("mpi: %d/%d ranks still running", w.done, len(w.Results))
	}
	return nil
}

// MaxElapsed returns the longest per-rank virtual run time — the
// "execution time" the paper's figures report.
func (w *World) MaxElapsed() simcore.Duration {
	var m simcore.Duration
	for i := range w.Results {
		if e := w.Results[i].Elapsed(); e > m {
			m = e
		}
	}
	return m
}
