package core

import (
	"fmt"

	"microgrid/internal/autopilot"
	"microgrid/internal/globus"
	"microgrid/internal/mpi"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/trace"
	"microgrid/internal/virtual"
)

// AppContext is what an application function receives on each rank.
type AppContext struct {
	// Comm is the rank's MPI communicator.
	Comm *mpi.Comm
	// Proc is the rank's virtual process.
	Proc *virtual.Process
	// Collector is the run's Autopilot collector (shared across ranks).
	Collector *autopilot.Collector
}

// RunOptions tune a RunApp invocation.
type RunOptions struct {
	// SamplePeriod, when nonzero, starts Autopilot sampling at this
	// virtual cadence (the paper samples every 1 s).
	SamplePeriod simcore.Duration
	// BasePort disambiguates the job's rendezvous ports.
	BasePort netsim.Port
	// RanksPerHost places several MPI ranks on each virtual host (GRAM
	// count > host count); ranks on one host timeshare its virtual CPU.
	// Default 1.
	RanksPerHost int
	// Ranks, when nonzero, overrides the rank count (block-cyclic over the
	// grid's hosts). Lets a job leave spare hosts for failover.
	Ranks int
	// SubmitPolicy, when non-nil, submits through
	// globus.Client.RunMPIJobResilient: each attempt re-discovers live
	// hosts from the GIS, times out after StatusTimeout, cancels, backs
	// off and retries. Nil keeps the plain submit-and-wait path.
	SubmitPolicy *globus.SubmitRetryPolicy
	// MaxWallTime, when nonzero, is injected into every job's RSL;
	// jobmanagers kill ranks that exceed it (bounds a partitioned run).
	MaxWallTime simcore.Duration
}

// Report is the outcome of one application run.
type Report struct {
	// Name is the application name.
	Name string
	// Rate is the simulation rate the run used.
	Rate float64
	// VirtualElapsed is the longest rank time in virtual units — the
	// "execution time" of the paper's figures.
	VirtualElapsed simcore.Duration
	// PhysicalElapsed is engine (emulation wallclock) time at completion.
	PhysicalElapsed simcore.Duration
	// PerRank holds each rank's virtual elapsed time.
	PerRank []simcore.Duration
	// Traces are the Autopilot samples, by sensor name.
	Traces map[string][]autopilot.Sample
	// Net aggregates the network simulator's counters over the run.
	Net netsim.NetStats
	// HostUtilization reports each physical machine's busy fraction.
	HostUtilization map[string]float64
	// Attempts is how many submissions the client made (1 = no fault hit;
	// >1 means recovery kicked in).
	Attempts int
	// JobVirtual is the client-observed virtual time from first submission
	// to completion — includes failed attempts and backoff, so under
	// faults it exceeds VirtualElapsed by the recovery cost.
	JobVirtual simcore.Duration
}

// RunApp submits fn as a Globus job across all of the grid's virtual
// hosts — discovered through the GIS, submitted to each host's
// gatekeeper, spawned by jobmanagers — runs the simulation to completion,
// and reports timings. It may be called once per MicroGrid (the engine is
// consumed).
func (m *MicroGrid) RunApp(name string, fn func(ctx *AppContext) error, opts RunOptions) (*Report, error) {
	if m.ran {
		return nil, fmt.Errorf("core: MicroGrid already ran an application")
	}
	m.ran = true
	rph := opts.RanksPerHost
	if rph <= 0 {
		rph = 1
	}
	// Rank r lives on host r mod len(Hosts): block-cyclic placement.
	n := len(m.Hosts) * rph
	if opts.Ranks > 0 {
		n = opts.Ranks
	}
	rankHosts := make([]string, n)
	for i := range rankHosts {
		rankHosts[i] = m.Hosts[i%len(m.Hosts)]
	}
	if m.lazy {
		// Bring up exactly the job's working set: a 100k-host declaration
		// with a 256-rank job materializes (and registers in the GIS) 256
		// hosts. Happens before the engine runs, so it is deterministic
		// at any shard count.
		ensured := make(map[string]bool, len(rankHosts))
		for _, hn := range rankHosts {
			if !ensured[hn] {
				ensured[hn] = true
				if err := m.EnsureHost(hn); err != nil {
					return nil, err
				}
			}
		}
	}
	col := autopilot.NewCollector(m.Eng, m.Grid.Clock())
	report := &Report{
		Name:    name,
		Rate:    m.Grid.Rate(),
		PerRank: make([]simcore.Duration, n),
		Traces:  make(map[string][]autopilot.Sample),
	}

	if err := m.Registry.Register(name, func(ctx *globus.JobContext) error {
		// Rank placement comes from the submission itself (ctx.Hosts), not
		// from rankHosts: a resilient resubmission after a crash lands on
		// a different host set.
		hostOf := func(r int) string { return ctx.Hosts[r] }
		c, err := mpi.Connect(ctx.Proc, ctx.Rank, ctx.Count, ctx.BasePort, hostOf)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Rank lifecycle flows through the structured recorder — the
		// single trace path — rather than any printf-style formatting.
		rec := ctx.Proc.Proc().Engine().Recorder()
		if rec.Enabled(trace.CatProc) {
			rec.Event(trace.CatProc, "rank-start", trace.Attr{
				Host: ctx.Proc.Host().Name, Rank: ctx.Rank, Detail: name})
		}
		start := ctx.Proc.Gettimeofday()
		if err := fn(&AppContext{Comm: c, Proc: ctx.Proc, Collector: col}); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rec.Enabled(trace.CatProc) {
			rec.Event(trace.CatProc, "rank-done", trace.Attr{
				Host: ctx.Proc.Host().Name, Rank: ctx.Rank, Detail: name})
		}
		report.PerRank[ctx.Rank] = ctx.Proc.Gettimeofday().Sub(start)
		return nil
	}); err != nil {
		return nil, err
	}

	if opts.SamplePeriod > 0 {
		if m.Partitioned() {
			// The Autopilot sampler reads every host's sensors from one
			// process; on a partitioned grid that would race across
			// shards. Sample serial runs (results are identical).
			return nil, fmt.Errorf("core: Autopilot sampling is not supported on a partitioned grid")
		}
		if err := col.Start(opts.SamplePeriod); err != nil {
			return nil, err
		}
	}

	// On a lazy grid the GIS holds only the working set registered
	// above; discovery must agree with that, not the declared count.
	wantHosts := len(m.Hosts)
	if m.lazy {
		wantHosts = m.registeredHostCount()
	}

	var submitErr error
	client, err := m.Grid.Host(m.Hosts[0]).Spawn("globus-client", func(p *virtual.Process) {
		defer col.Stop()
		defer m.Grid.StopControllers()
		cl := &globus.Client{Proc: p, MaxWallTime: opts.MaxWallTime}
		start := p.Gettimeofday()
		// Even a failed run has a measured cost: how long the client fought
		// before giving up.
		defer func() {
			report.JobVirtual = p.Gettimeofday().Sub(start)
			report.PhysicalElapsed = simcore.Duration(p.Proc().Now())
		}()
		report.Attempts = 1
		if opts.SubmitPolicy != nil {
			// Resilient path: discovery happens per attempt inside, so no
			// up-front host count check — failover wants fewer hosts.
			out, err := cl.RunMPIJobResilient(m.GIS, m.ConfigName, name, n, opts.BasePort, *opts.SubmitPolicy)
			if out != nil {
				report.Attempts = out.Attempts
			}
			if err != nil {
				submitErr = err
				return
			}
		} else {
			hosts := globus.DiscoverHosts(m.GIS, m.ConfigName)
			if len(hosts) != wantHosts {
				submitErr = fmt.Errorf("core: GIS discovery found %d hosts, want %d", len(hosts), wantHosts)
				return
			}
			mj, err := cl.SubmitMPIJob(m.GIS, name, rankHosts, opts.BasePort)
			if err != nil {
				submitErr = err
				return
			}
			if err := mj.WaitAll(); err != nil {
				submitErr = err
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	_ = client

	if err := m.runSim(); err != nil {
		return nil, fmt.Errorf("core: simulation error: %w", err)
	}
	if submitErr != nil {
		// The report still carries the measured cost of the failure
		// (Attempts, JobVirtual); fault experiments read it.
		return report, submitErr
	}
	for _, d := range report.PerRank {
		if d > report.VirtualElapsed {
			report.VirtualElapsed = d
		}
	}
	for _, sensor := range col.Names() {
		report.Traces[sensor] = col.Trace(sensor)
	}
	report.Net = m.Grid.Network().TotalStats()
	report.HostUtilization = make(map[string]float64)
	seen := map[string]bool{}
	for _, name := range m.Hosts {
		// Untouched hosts on a lazy grid have no physical machine and
		// consumed nothing; reporting sweeps only the materialized set.
		h := m.Grid.Materialized(name)
		if h == nil {
			continue
		}
		p := h.Phys
		if !seen[p.Name] {
			seen[p.Name] = true
			report.HostUtilization[p.Name] = p.Utilization()
		}
	}
	return report, nil
}
