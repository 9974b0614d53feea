package workqueue

import (
	"fmt"
	"sort"

	"microgrid/internal/mpi"
	"microgrid/internal/simcore"
)

// Fault-tolerant self-scheduling: the master assumes workers can die
// (their virtual host crashes mid-chunk) and recovers by re-dispatching
// lost work. A grant not reported back within LostTimeout declares its
// worker lost; the chunk goes on a requeue and is granted to the next
// requester. A "dead" worker that was merely slow and reports after all
// (a straggler) is welcomed back, and its chunk — possibly already
// re-executed elsewhere — is counted exactly once, by chunk identity.

// grantInfo tracks one outstanding chunk at the master.
type grantInfo struct {
	a  assignment
	at simcore.Time
}

func runMasterFT(c *mpi.Comm, cfg Config) (*Result, error) {
	res := &Result{PerWorker: make([]int, c.Size())}
	workers := c.Size() - 1
	remaining := cfg.Units
	next := 0
	outstanding := make(map[int]*grantInfo) // worker → in-flight grant
	counted := make(map[int]bool)           // chunk first → already credited
	dead := make(map[int]bool)
	var requeue []assignment // lost chunks awaiting re-dispatch
	var parked []int         // requesters idled while chunks are in flight
	dismissed := 0
	now := func() simcore.Time { return c.Proc().Gettimeofday() }
	deadCount := func() int {
		n := 0
		for _, d := range dead {
			if d {
				n++
			}
		}
		return n
	}
	// grantTo hands w a chunk: requeued work first (recovery beats fresh
	// progress), else a guided-self-scheduling slice of the remainder.
	// Send errors are ignored — if w is dead the grant will be reaped.
	grantTo := func(w int) {
		var a assignment
		if len(requeue) > 0 {
			a, requeue = requeue[0], requeue[1:]
			res.RedispatchedUnits += a.count
		} else {
			chunk := remaining / (2 * workers)
			if chunk < cfg.MinChunk {
				chunk = cfg.MinChunk
			}
			if chunk > remaining {
				chunk = remaining
			}
			a = assignment{first: next, count: chunk}
			next += chunk
			remaining -= chunk
		}
		outstanding[w] = &grantInfo{a: a, at: now()}
		_ = c.Send(w, tagAssign, 16, &a)
	}
	dismiss := func(w int) {
		_ = c.Send(w, tagAssign, 16, &assignment{})
		dismissed++
	}
	handleResult := func(w int, r *report) {
		if g := outstanding[w]; g != nil && g.a.first == r.first {
			delete(outstanding, w)
		}
		if dead[w] {
			dead[w] = false
			res.Stragglers++
		}
		if !counted[r.first] {
			counted[r.first] = true
			res.UnitsDone += r.count
			res.PerWorker[w] += r.count
		}
	}

	for res.UnitsDone < cfg.Units {
		if deadCount() == workers {
			return res, fmt.Errorf("workqueue: all %d workers lost with %d/%d units done",
				workers, res.UnitsDone, cfg.Units)
		}
		// Sleep at most until the oldest outstanding grant expires.
		wait := simcore.Duration(0)
		if len(outstanding) > 0 {
			for _, g := range outstanding {
				d := g.at.Add(cfg.LostTimeout).Sub(now())
				if wait == 0 || d < wait {
					wait = d
				}
			}
			if wait < simcore.Millisecond {
				wait = simcore.Millisecond
			}
		}
		var (
			data     any
			st       mpi.Status
			timedOut bool
			err      error
		)
		if wait > 0 {
			data, st, timedOut, err = c.RecvTimeout(mpi.AnySource, mpi.AnyTag, wait)
		} else {
			data, st, err = c.Recv(mpi.AnySource, mpi.AnyTag)
		}
		if err != nil {
			return res, err
		}
		if timedOut {
			// Reap expired grants (worker order for determinism).
			var expired []int
			for w, g := range outstanding {
				if now().Sub(g.at) >= cfg.LostTimeout {
					expired = append(expired, w)
				}
			}
			sort.Ints(expired)
			for _, w := range expired {
				g := outstanding[w]
				delete(outstanding, w)
				dead[w] = true
				res.DeadWorkers++
				res.LostUnits += g.a.count
				requeue = append(requeue, g.a)
			}
			// Requeued work un-parks idled requesters, oldest first.
			for len(parked) > 0 && len(requeue) > 0 {
				w := parked[0]
				parked = parked[1:]
				grantTo(w)
			}
			continue
		}
		switch st.Tag {
		case tagRequest:
			w := st.Source
			dead[w] = false // it speaks, therefore it lives
			switch {
			case len(requeue) > 0 || remaining > 0:
				grantTo(w)
			case len(outstanding) > 0:
				// No work now, but in-flight chunks may yet be lost and
				// requeued: hold the requester instead of dismissing it.
				parked = append(parked, w)
			default:
				dismiss(w)
			}
		case tagResult:
			handleResult(st.Source, data.(*report))
		}
	}

	// All units accounted for. Release everyone still attached: parked
	// requesters, workers finishing duplicate chunks, stragglers. Truly
	// dead workers never call back; one quiet LostTimeout ends the drain.
	for _, w := range parked {
		dismiss(w)
	}
	parked = nil
	for dismissed+deadCount() < workers {
		data, st, timedOut, err := c.RecvTimeout(mpi.AnySource, mpi.AnyTag, cfg.LostTimeout)
		if err != nil {
			return res, err
		}
		if timedOut {
			break
		}
		switch st.Tag {
		case tagRequest:
			if dead[st.Source] {
				dead[st.Source] = false
			}
			dismiss(st.Source)
		case tagResult:
			handleResult(st.Source, data.(*report))
		}
	}
	return res, nil
}

// Metrics returns the fault-tolerance counters as a flat name→value map
// for the experiment harness.
func (r *Result) Metrics() map[string]float64 {
	return map[string]float64{
		"units_done":         float64(r.UnitsDone),
		"dead_workers":       float64(r.DeadWorkers),
		"lost_units":         float64(r.LostUnits),
		"redispatched_units": float64(r.RedispatchedUnits),
		"stragglers":         float64(r.Stragglers),
	}
}
