package globus

import (
	"fmt"
	"strconv"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

// DefaultGatekeeperPort is the historical Globus gatekeeper port.
const DefaultGatekeeperPort netsim.Port = 2119

// Job states reported by the jobmanager.
const (
	StatePending = "PENDING"
	StateActive  = "ACTIVE"
	StateDone    = "DONE"
	StateFailed  = "FAILED"
)

// AppFunc is a registered executable: the body of a job process.
type AppFunc func(ctx *JobContext) error

// Registry maps executable names to application functions — the analog of
// binaries installed on every virtual host.
type Registry struct {
	m map[string]AppFunc
}

// NewRegistry returns an empty executable registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]AppFunc)} }

// Register installs an executable; duplicate names are an error.
func (r *Registry) Register(name string, fn AppFunc) error {
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("globus: executable %q already registered", name)
	}
	r.m[name] = fn
	return nil
}

// Lookup finds an executable.
func (r *Registry) Lookup(name string) (AppFunc, bool) {
	fn, ok := r.m[name]
	return fn, ok
}

// JobContext is what a job process receives: its process handle, the RSL
// request, and its place in a multi-host job.
type JobContext struct {
	// Proc is the job's virtual process.
	Proc *virtual.Process
	// RSL is the submitted request.
	RSL *RSL
	// Rank and Count place this process within the job.
	Rank, Count int
	// Hosts lists the virtual host of each rank.
	Hosts []string
	// BasePort is the rendezvous port base for the job's communicator.
	BasePort netsim.Port
}

// submitReq is the client→gatekeeper submission message.
type submitReq struct {
	rslText  string
	rank     int
	count    int
	hosts    []string
	basePort netsim.Port
}

// statusMsg is the jobmanager→client notification.
type statusMsg struct {
	state string
	err   string
}

// Gatekeeper accepts submissions on a virtual host and hands them to a
// jobmanager.
type Gatekeeper struct {
	Host     *virtual.Host
	Port     netsim.Port
	registry *Registry
	// Stats
	Submitted, Rejected int64
}

// StartGatekeeper launches the gatekeeper daemon on host at port (0 =
// DefaultGatekeeperPort), serving executables from registry.
func StartGatekeeper(host *virtual.Host, port netsim.Port, registry *Registry) (*Gatekeeper, error) {
	if port == 0 {
		port = DefaultGatekeeperPort
	}
	gk := &Gatekeeper{Host: host, Port: port, registry: registry}
	_, err := host.SpawnDaemon("gatekeeper", func(p *virtual.Process) {
		ln, err := p.Listen(port)
		if err != nil {
			return
		}
		for {
			conn, err := ln.Accept(p)
			if err != nil {
				return
			}
			gk.handle(conn)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("globus: gatekeeper on %s: %w", host.Name, err)
	}
	return gk, nil
}

// handle processes one submission connection on a fresh handler process.
func (gk *Gatekeeper) handle(conn *virtual.Conn) {
	_, err := gk.Host.SpawnDaemon("gk-handler", func(p *virtual.Process) {
		c := conn.Rebind(p)
		m, err := c.RecvRaw()
		if err != nil {
			return
		}
		req, ok := m.Payload.(*submitReq)
		if !ok {
			_ = c.Send(16, &statusMsg{state: StateFailed, err: "malformed submission"})
			return
		}
		p.ChargeMessage(m.Size)
		rsl, err := ParseRSL(req.rslText)
		if err != nil {
			gk.Rejected++
			_ = c.Send(16, &statusMsg{state: StateFailed, err: err.Error()})
			return
		}
		fn, ok := gk.registry.Lookup(rsl.Executable())
		if !ok {
			gk.Rejected++
			_ = c.Send(16, &statusMsg{state: StateFailed, err: "no such executable " + rsl.Executable()})
			return
		}
		gk.Submitted++
		// Hand off to a jobmanager process, as GRAM does.
		runJobManager(gk.Host, c, rsl, req, fn)
	})
	if err != nil && gk.Host != nil {
		// Out of memory on the virtual host: refuse.
		_ = conn.Send(16, &statusMsg{state: StateFailed, err: "gatekeeper overloaded: " + err.Error()})
	}
}

// runJobManager spawns the jobmanager, which creates and monitors the job
// process and streams status back to the client.
func runJobManager(host *virtual.Host, c *virtual.Conn, rsl *RSL, req *submitReq, fn AppFunc) {
	_, err := host.SpawnDaemon("jobmanager", func(jm *virtual.Process) {
		jmConn := c.Rebind(jm)
		// Jobmanager startup cost (fork/exec, environment setup).
		jm.ComputeVirtualSeconds(0.002)
		if err := jmConn.Send(16, &statusMsg{state: StatePending}); err != nil {
			return
		}
		doneState := StateDone
		errText := ""
		finished := false
		job, err := host.Spawn("job:"+rsl.Executable(), func(p *virtual.Process) {
			ctx := &JobContext{
				Proc:     p,
				RSL:      rsl,
				Rank:     req.rank,
				Count:    req.count,
				Hosts:    req.hosts,
				BasePort: req.basePort,
			}
			if err := fn(ctx); err != nil {
				doneState = StateFailed
				errText = err.Error()
			}
			finished = true
		})
		if err != nil {
			_ = jmConn.Send(16, &statusMsg{state: StateFailed, err: err.Error()})
			return
		}
		if err := jmConn.Send(16, &statusMsg{state: StateActive}); err != nil {
			return
		}
		// Poll for completion, as the real jobmanager polled the local
		// scheduler. The poll interval is virtual time. The same loop
		// enforces the RSL walltime limit and reaps the job if the client
		// vanishes (crashed submitter, cancelled multijob) — without it a
		// partitioned or abandoned rank would compute forever.
		deadline := simcore.Time(0)
		if wt := rsl.MaxWallTime(); wt > 0 {
			deadline = jm.Gettimeofday().Add(simcore.Duration(wt * 1e9))
		}
		for !finished {
			jm.Sleep(10 * simcore.Millisecond)
			if finished {
				break
			}
			if jmConn.PeerClosed() {
				job.Kill()
				jmConn.Close()
				return
			}
			if deadline != 0 && jm.Gettimeofday() >= deadline {
				job.Kill()
				doneState = StateFailed
				errText = fmt.Sprintf("walltime limit of %gs exceeded", rsl.MaxWallTime())
				break
			}
		}
		_ = jmConn.Send(16, &statusMsg{state: doneState, err: errText})
		jmConn.Close()
	})
	if err != nil {
		_ = c.Send(16, &statusMsg{state: StateFailed, err: err.Error()})
	}
}

// RegisterInGIS publishes the gatekeeper's host record into the GIS, with
// the paper's virtual-resource extensions.
func (gk *Gatekeeper) RegisterInGIS(server *gis.Server, orgUnit, configName, mappedPhysical string) {
	rec := gis.VirtualHost{
		Hostname:       gk.Host.Name,
		OrgUnit:        orgUnit,
		ConfigName:     configName,
		MappedPhysical: mappedPhysical,
		CPUSpeedMIPS:   gk.Host.CPUSpeedMIPS,
		MemoryBytes:    gk.Host.Mem.Limit(),
		VirtualIP:      gk.Host.IP.String(),
		GatekeeperPort: int(gk.Port),
	}
	e := rec.Entry()
	e.Set(gis.AttrGatekeeperPort, strconv.Itoa(int(gk.Port)))
	server.Upsert(e)
}

// DeregisterFromGIS removes the gatekeeper's host record — run on host
// crash so clients discovering resources do not route work at a corpse.
func (gk *Gatekeeper) DeregisterFromGIS(server *gis.Server, orgUnit string) {
	dn := gis.VirtualHost{Hostname: gk.Host.Name, OrgUnit: orgUnit}.DN()
	server.Delete(dn)
}
