package globus

import (
	"fmt"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// SubmitRetryPolicy governs RunMPIJobResilient: how long to wait for a
// submission to complete, how often to retry, and how to back off. All
// durations are virtual time.
type SubmitRetryPolicy struct {
	// StatusTimeout bounds one attempt end to end (submit through DONE).
	StatusTimeout simcore.Duration
	// MaxAttempts caps submissions (default 3). 1 disables recovery:
	// the first failure is final.
	MaxAttempts int
	// Backoff is the wait before the second attempt (default 250ms
	// virtual), doubling each further attempt.
	Backoff simcore.Duration
	// BackoffJitter, if nonzero, adds ±jitter drawn from a per-job random
	// stream to each backoff — deterministic for a fixed seed and
	// independent of how the model is partitioned across shards.
	BackoffJitter simcore.Duration
	// PortStride spaces the rendezvous base ports of successive attempts
	// (default 64) so a late-dying rank from attempt k cannot collide
	// with attempt k+1's world.
	PortStride int
}

func (p SubmitRetryPolicy) withDefaults() SubmitRetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 250 * simcore.Millisecond
	}
	if p.PortStride <= 0 {
		p.PortStride = 64
	}
	return p
}

// ResilientOutcome records what RunMPIJobResilient did.
type ResilientOutcome struct {
	// Attempts is the number of submissions made (1 = no fault hit).
	Attempts int
}

// RunMPIJobResilient submits a count-wide MPI job and shepherds it to
// completion, retrying on failure: each attempt re-discovers live hosts
// from the GIS (crashed gatekeepers deregister, so failover lands on
// survivors), waits at most StatusTimeout, and on timeout or error
// cancels the attempt — jobmanagers reap its ranks — backs off, and
// resubmits on a strided port. This is the paper's middleware story run
// under faults: resource discovery, co-allocation and job management
// composing into recovery.
func (cl *Client) RunMPIJobResilient(server *gis.Server, configName, executable string, count int, basePort netsim.Port, pol SubmitRetryPolicy) (*ResilientOutcome, error) {
	pol = pol.withDefaults()
	out := &ResilientOutcome{}
	backoff := pol.Backoff
	eng := cl.Proc.Proc().Engine()
	// One jitter stream per job, derived from a stable label so retry
	// backoffs are identical however the model is partitioned across
	// shards. The base port disambiguates concurrent jobs for the same
	// executable.
	jitterRng := eng.DeriveRand(fmt.Sprintf("globus:backoff:%s:%s:%d", configName, executable, basePort))
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		out.Attempts = attempt
		if r := eng.Recorder(); r.Enabled(trace.CatGlobus) {
			r.Event(trace.CatGlobus, "attempt", trace.Attr{
				Detail: fmt.Sprintf("%s attempt %d/%d", executable, attempt, pol.MaxAttempts)})
		}
		avail := DiscoverHosts(server, configName)
		if len(avail) == 0 {
			lastErr = fmt.Errorf("globus: no live gatekeepers for config %q", configName)
		} else {
			hosts := make([]string, count)
			for i := range hosts {
				hosts[i] = avail[i%len(avail)]
			}
			port := basePort + netsim.Port((attempt-1)*pol.PortStride)
			mj, err := cl.SubmitMPIJob(server, executable, hosts, port)
			if err == nil {
				if pol.StatusTimeout > 0 {
					err = mj.WaitAllTimeout(pol.StatusTimeout)
				} else {
					err = mj.WaitAll()
				}
				if err == nil {
					if r := eng.Recorder(); r.Enabled(trace.CatGlobus) {
						r.Event(trace.CatGlobus, "job-ok", trace.Attr{
							Detail: fmt.Sprintf("%s after %d attempt(s)", executable, attempt)})
					}
					return out, nil
				}
				mj.Cancel()
			}
			lastErr = err
		}
		if r := eng.Recorder(); r.Enabled(trace.CatGlobus) && lastErr != nil {
			r.Event(trace.CatGlobus, "attempt-fail", trace.Attr{Detail: lastErr.Error()})
		}
		if attempt == pol.MaxAttempts {
			break
		}
		wait := backoff
		if pol.BackoffJitter > 0 {
			wait += simcore.Duration(jitterRng.Int63n(int64(2*pol.BackoffJitter))) - pol.BackoffJitter
			if wait < 0 {
				wait = 0
			}
		}
		if r := eng.Recorder(); r.Enabled(trace.CatGlobus) {
			r.Event(trace.CatGlobus, "backoff", trace.Attr{Detail: wait.String()})
		}
		cl.Proc.Sleep(wait)
		backoff *= 2
	}
	return out, fmt.Errorf("globus: job %s failed after %d attempt(s): %w", executable, out.Attempts, lastErr)
}
