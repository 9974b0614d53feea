package globus

import (
	"fmt"
	"strconv"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
	"microgrid/internal/virtual"
)

// Client submits jobs from a virtual host (as in the paper, clients run on
// virtual hosts so submission crosses into the virtual domain through the
// gatekeeper).
type Client struct {
	// Proc is the client's process.
	Proc *virtual.Process
	// MaxWallTime, if nonzero, is injected as the RSL maxwalltime of every
	// submitted job: jobmanagers kill ranks that exceed it. Essential for
	// fault experiments, where a network partition can leave ranks running
	// on hosts the client can no longer reach.
	MaxWallTime simcore.Duration
}

// JobHandle tracks one submitted (sub)job.
type JobHandle struct {
	// Host is the gatekeeper host the job was submitted to.
	Host string
	conn *virtual.Conn
	proc *virtual.Process
	// FailReason holds the error text for StateFailed.
	FailReason string
}

// Submit sends one subjob to a gatekeeper: this process will run as rank
// of a count-wide job whose ranks live on hosts. Returns after the
// gatekeeper accepts the connection and the request is sent.
func (cl *Client) Submit(gatekeeperHost string, port netsim.Port, rsl *RSL, rank, count int, hosts []string, basePort netsim.Port) (*JobHandle, error) {
	if port == 0 {
		port = DefaultGatekeeperPort
	}
	conn, err := cl.Proc.Dial(gatekeeperHost, port)
	if err != nil {
		return nil, fmt.Errorf("globus: submit to %s: %w", gatekeeperHost, err)
	}
	req := &submitReq{
		rslText:  rsl.String(),
		rank:     rank,
		count:    count,
		hosts:    hosts,
		basePort: basePort,
	}
	if err := conn.Send(len(req.rslText)+64, req); err != nil {
		return nil, fmt.Errorf("globus: submit to %s: %w", gatekeeperHost, err)
	}
	if r := cl.Proc.Proc().Engine().Recorder(); r.Enabled(trace.CatGlobus) {
		r.Event(trace.CatGlobus, "submit", trace.Attr{
			Host: gatekeeperHost, Detail: fmt.Sprintf("rank %d/%d", rank, count)})
	}
	return &JobHandle{Host: gatekeeperHost, conn: conn, proc: cl.Proc}, nil
}

// NextState blocks for the next status notification.
func (j *JobHandle) NextState() (string, error) {
	m, err := j.conn.Recv()
	if err != nil {
		return "", fmt.Errorf("globus: job on %s: status channel: %w", j.Host, err)
	}
	st, ok := m.Payload.(*statusMsg)
	if !ok {
		return "", fmt.Errorf("globus: job on %s: malformed status", j.Host)
	}
	j.FailReason = st.err
	if r := j.proc.Proc().Engine().Recorder(); r.Enabled(trace.CatGlobus) {
		r.Event(trace.CatGlobus, "job-state", trace.Attr{Host: j.Host, Detail: st.state})
	}
	return st.state, nil
}

// WaitDone blocks until the job reaches DONE or FAILED; FAILED returns an
// error carrying the jobmanager's reason.
func (j *JobHandle) WaitDone() error {
	for {
		state, err := j.NextState()
		if err != nil {
			return err
		}
		switch state {
		case StateDone:
			return nil
		case StateFailed:
			return fmt.Errorf("globus: job on %s failed: %s", j.Host, j.FailReason)
		}
	}
}

// NextStateTimeout is NextState with a deadline of d virtual time. A
// timeout consumes nothing; err remains nil.
func (j *JobHandle) NextStateTimeout(d simcore.Duration) (state string, timedOut bool, err error) {
	m, timedOut, err := j.conn.RecvTimeout(d)
	if err != nil {
		return "", false, fmt.Errorf("globus: job on %s: status channel: %w", j.Host, err)
	}
	if timedOut {
		return "", true, nil
	}
	st, ok := m.Payload.(*statusMsg)
	if !ok {
		return "", false, fmt.Errorf("globus: job on %s: malformed status", j.Host)
	}
	j.FailReason = st.err
	if r := j.proc.Proc().Engine().Recorder(); r.Enabled(trace.CatGlobus) {
		r.Event(trace.CatGlobus, "job-state", trace.Attr{Host: j.Host, Detail: st.state})
	}
	return st.state, false, nil
}

// Cancel abandons the job: closing the status channel tells the
// jobmanager — which checks for a vanished client on every poll — to
// kill the job process. Safe to call at any point, including after DONE.
func (j *JobHandle) Cancel() { j.conn.Close() }

// MultiJob is a coallocated job spread over several gatekeepers (the
// DUROC analog used to launch one MPI rank per virtual host).
type MultiJob struct {
	Handles []*JobHandle
}

// SubmitMPIJob submits executable as a count-wide MPI job with rank i on
// hosts[i], discovering each host's gatekeeper port from the GIS. basePort
// disambiguates concurrent jobs.
func (cl *Client) SubmitMPIJob(server *gis.Server, executable string, hosts []string, basePort netsim.Port) (*MultiJob, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("globus: no hosts for MPI job")
	}
	rsl := NewRSL([2]string{"executable", executable},
		[2]string{"count", strconv.Itoa(len(hosts))})
	if cl.MaxWallTime > 0 {
		rsl.Set("maxwalltime", strconv.FormatFloat(cl.MaxWallTime.Seconds(), 'g', -1, 64))
	}
	mj := &MultiJob{}
	for rank, h := range hosts {
		port := DefaultGatekeeperPort
		if rec := findHostRecord(server, h); rec != nil {
			if s := rec.Get(gis.AttrGatekeeperPort); s != "" {
				if v, err := strconv.Atoi(s); err == nil {
					port = netsim.Port(v)
				}
			}
		}
		handle, err := cl.Submit(h, port, rsl, rank, len(hosts), hosts, basePort)
		if err != nil {
			// Don't leave already-submitted ranks waiting forever on a
			// world that will never assemble.
			mj.Cancel()
			return nil, err
		}
		mj.Handles = append(mj.Handles, handle)
	}
	return mj, nil
}

// Cancel abandons every subjob; their jobmanagers reap the ranks.
func (mj *MultiJob) Cancel() {
	for _, h := range mj.Handles {
		h.Cancel()
	}
}

// WaitAllTimeout is WaitAll with one shared deadline of d virtual time
// across all subjobs. On timeout it reports which subjobs were still
// unfinished; the caller decides whether to Cancel.
func (mj *MultiJob) WaitAllTimeout(d simcore.Duration) error {
	if len(mj.Handles) == 0 {
		return nil
	}
	deadline := mj.Handles[0].proc.Gettimeofday().Add(d)
	var firstErr error
	var late []string
	for _, h := range mj.Handles {
	subjob:
		for {
			remain := deadline.Sub(h.proc.Gettimeofday())
			if remain <= 0 {
				late = append(late, h.Host)
				break
			}
			state, timedOut, err := h.NextStateTimeout(remain)
			switch {
			case err != nil:
				if firstErr == nil {
					firstErr = err
				}
				break subjob
			case timedOut:
				late = append(late, h.Host)
				break subjob
			case state == StateDone:
				break subjob
			case state == StateFailed:
				if firstErr == nil {
					firstErr = fmt.Errorf("globus: job on %s failed: %s", h.Host, h.FailReason)
				}
				break subjob
			}
		}
	}
	if firstErr == nil && len(late) > 0 {
		firstErr = fmt.Errorf("globus: timed out after %v waiting for subjobs on %v", d, late)
	}
	return firstErr
}

// WaitAll blocks until every subjob finishes, returning the first failure.
func (mj *MultiJob) WaitAll() error {
	var firstErr error
	for _, h := range mj.Handles {
		if err := h.WaitDone(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// findHostRecord locates a host record by hostname anywhere in the DIT.
func findHostRecord(server *gis.Server, hostname string) *gis.Entry {
	for _, e := range server.Search("", gis.ScopeSubtree, gis.Present(gis.AttrGatekeeperPort)) {
		if e.DN.RDN() == "hn="+hostname {
			return e
		}
	}
	return nil
}

// DiscoverHosts returns the virtual host names of a configuration that
// have gatekeepers, sorted by hostname — resource discovery through the
// virtualized information service.
func DiscoverHosts(server *gis.Server, configName string) []string {
	filter := gis.And(
		gis.Eq(gis.AttrIsVirtual, "Yes"),
		gis.Eq(gis.AttrConfigName, configName),
		gis.Present(gis.AttrGatekeeperPort),
	)
	var out []string
	for _, e := range server.Search("", gis.ScopeSubtree, filter) {
		rdn := e.DN.RDN()
		if len(rdn) > 3 && rdn[:3] == "hn=" {
			out = append(out, rdn[3:])
		}
	}
	return out
}
