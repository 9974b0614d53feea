package globus

import (
	"fmt"
	"strings"
	"testing"

	"microgrid/internal/gis"
	"microgrid/internal/mpi"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

func TestParseRSL(t *testing.T) {
	r, err := ParseRSL("&(executable=ep.A.4)(count=4)(arguments=-v --class A)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Executable() != "ep.A.4" || r.Get("count") != "4" {
		t.Fatalf("exe=%q count=%q", r.Executable(), r.Get("count"))
	}
	if args := r.Get("arguments"); args != "-v --class A" {
		t.Fatalf("args = %q", args)
	}
	// Round trip.
	r2, err := ParseRSL(r.String())
	if err != nil || r2.String() != r.String() {
		t.Fatalf("round trip %q vs %q (%v)", r2, r, err)
	}
}

func TestParseRSLDefaults(t *testing.T) {
	r, err := ParseRSL("(executable=x)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Get("count") != "" || r.Get("arguments") != "" {
		t.Fatalf("defaults: count=%q args=%q", r.Get("count"), r.Get("arguments"))
	}
	if r.Get("EXECUTABLE") != "x" {
		t.Fatal("case-insensitive Get failed")
	}
}

func TestParseRSLErrors(t *testing.T) {
	for _, bad := range []string{"", "&", "&(noequals)", "&(=v)", "&(a=b", "&x(a=b)"} {
		if _, err := ParseRSL(bad); err == nil {
			t.Errorf("ParseRSL(%q) accepted", bad)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("ep", func(*JobContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("ep", nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, ok := reg.Lookup("ep"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := reg.Lookup("missing"); ok {
		t.Fatal("phantom lookup")
	}
}

// testbed builds a 3-host grid with gatekeepers on vm1, vm2 and a client
// on vm0, plus a GIS.
type testbed struct {
	eng    *simcore.Engine
	grid   *virtual.Grid
	server *gis.Server
	reg    *Registry
}

func newTestbed(t *testing.T, n int) *testbed {
	t.Helper()
	eng := simcore.NewEngine(1)
	g, err := virtual.NewLANGrid(eng, "vm", n, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb := &testbed{eng: eng, grid: g, server: gis.NewServer(), reg: NewRegistry()}
	for i := 1; i < n; i++ {
		gk, err := StartGatekeeper(g.Host(fmt.Sprintf("vm%d", i)), 0, tb.reg)
		if err != nil {
			t.Fatal(err)
		}
		gk.RegisterInGIS(tb.server, "CSAG", "TestConfig", fmt.Sprintf("phys-vm%d", i))
	}
	return tb
}

func TestSubmitRunsJob(t *testing.T) {
	tb := newTestbed(t, 2)
	ran := false
	var gotArgs string
	if err := tb.reg.Register("hello", func(ctx *JobContext) error {
		ran = true
		gotArgs = ctx.RSL.Get("arguments")
		ctx.Proc.ComputeVirtualSeconds(0.05)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var jobErr error
	_, err := tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		rsl := NewRSL([2]string{"executable", "hello"}, [2]string{"arguments", "a b"})
		h, err := cl.Submit("vm1", 0, rsl, 0, 1, []string{"vm1"}, 0)
		if err != nil {
			jobErr = err
			return
		}
		jobErr = h.WaitDone()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	if !ran || gotArgs != "a b" {
		t.Fatalf("ran=%v args=%q", ran, gotArgs)
	}
}

func TestJobFailureReported(t *testing.T) {
	tb := newTestbed(t, 2)
	_ = tb.reg.Register("boom", func(ctx *JobContext) error {
		return fmt.Errorf("segfault at 0xdead")
	})
	var jobErr error
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		h, err := cl.Submit("vm1", 0, NewRSL([2]string{"executable", "boom"}), 0, 1, []string{"vm1"}, 0)
		if err != nil {
			jobErr = err
			return
		}
		jobErr = h.WaitDone()
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr == nil || !strings.Contains(jobErr.Error(), "segfault") {
		t.Fatalf("jobErr = %v", jobErr)
	}
}

func TestUnknownExecutableRejected(t *testing.T) {
	tb := newTestbed(t, 2)
	var jobErr error
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		h, err := cl.Submit("vm1", 0, NewRSL([2]string{"executable", "nope"}), 0, 1, []string{"vm1"}, 0)
		if err != nil {
			jobErr = err
			return
		}
		jobErr = h.WaitDone()
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr == nil || !strings.Contains(jobErr.Error(), "no such executable") {
		t.Fatalf("jobErr = %v", jobErr)
	}
}

func TestGISRegistrationAndDiscovery(t *testing.T) {
	tb := newTestbed(t, 3)
	hosts := DiscoverHosts(tb.server, "TestConfig")
	if len(hosts) != 2 || hosts[0] != "vm1" || hosts[1] != "vm2" {
		t.Fatalf("discovered %v", hosts)
	}
	if DiscoverHosts(tb.server, "Other") != nil {
		t.Fatal("phantom config discovered")
	}
	rec := findHostRecord(tb.server, "vm1")
	if rec == nil || rec.Get(gis.AttrGatekeeperPort) != "2119" {
		t.Fatalf("record = %v", rec)
	}
}

// TestMPIJobThroughGlobus is the full stack: client discovers hosts via
// GIS, submits a 2-rank MPI job through two gatekeepers, ranks connect and
// allreduce, statuses flow back.
func TestMPIJobThroughGlobus(t *testing.T) {
	tb := newTestbed(t, 3)
	var sums []float64
	_ = tb.reg.Register("allred", func(ctx *JobContext) error {
		c, err := mpi.Connect(ctx.Proc, ctx.Rank, ctx.Count, ctx.BasePort,
			func(r int) string { return ctx.Hosts[r] })
		if err != nil {
			return err
		}
		out, err := c.AllreduceFloat64([]float64{float64(ctx.Rank + 1)}, mpi.Sum)
		if err != nil {
			return err
		}
		sums = append(sums, out[0])
		return nil
	})
	var jobErr error
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		hosts := DiscoverHosts(tb.server, "TestConfig")
		mj, err := cl.SubmitMPIJob(tb.server, "allred", hosts, 6000)
		if err != nil {
			jobErr = err
			return
		}
		jobErr = mj.WaitAll()
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	if len(sums) != 2 || sums[0] != 3 || sums[1] != 3 {
		t.Fatalf("allreduce results = %v", sums)
	}
}

// TestConcurrentMPIJobs: two MPI jobs run through the same gatekeepers at
// the same time, on distinct rendezvous ports.
func TestConcurrentMPIJobs(t *testing.T) {
	tb := newTestbed(t, 3)
	runs := map[string]int{}
	mkApp := func(name string) AppFunc {
		return func(ctx *JobContext) error {
			c, err := mpi.Connect(ctx.Proc, ctx.Rank, ctx.Count, ctx.BasePort,
				func(r int) string { return ctx.Hosts[r] })
			if err != nil {
				return err
			}
			ctx.Proc.ComputeVirtualSeconds(0.05)
			if err := c.Barrier(); err != nil {
				return err
			}
			runs[name]++
			return nil
		}
	}
	_ = tb.reg.Register("jobA", mkApp("A"))
	_ = tb.reg.Register("jobB", mkApp("B"))
	var errA, errB error
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		hosts := DiscoverHosts(tb.server, "TestConfig")
		ja, err := cl.SubmitMPIJob(tb.server, "jobA", hosts, 7000)
		if err != nil {
			errA = err
			return
		}
		jb, err := cl.SubmitMPIJob(tb.server, "jobB", hosts, 8000)
		if err != nil {
			errB = err
			return
		}
		errA = ja.WaitAll()
		errB = jb.WaitAll()
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if errA != nil || errB != nil {
		t.Fatalf("errA=%v errB=%v", errA, errB)
	}
	if runs["A"] != 2 || runs["B"] != 2 {
		t.Fatalf("runs = %v", runs)
	}
}

func TestJobContextCarriesRSLArguments(t *testing.T) {
	tb := newTestbed(t, 2)
	var got string
	var rank, count int
	_ = tb.reg.Register("argy", func(ctx *JobContext) error {
		got = ctx.RSL.Get("arguments")
		rank, count = ctx.Rank, ctx.Count
		return nil
	})
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		rsl := NewRSL([2]string{"executable", "argy"}, [2]string{"arguments", "--class A -n 4"})
		h, err := cl.Submit("vm1", 0, rsl, 3, 8, []string{"vm1"}, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.WaitDone(); err != nil {
			t.Error(err)
		}
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "--class A -n 4" {
		t.Fatalf("args = %q", got)
	}
	if rank != 3 || count != 8 {
		t.Fatalf("rank/count = %d/%d", rank, count)
	}
}

func TestSubmitMPIJobEmptyHosts(t *testing.T) {
	tb := newTestbed(t, 2)
	_, _ = tb.grid.Host("vm0").Spawn("client", func(p *virtual.Process) {
		cl := &Client{Proc: p}
		if _, err := cl.SubmitMPIJob(tb.server, "x", nil, 0); err == nil {
			t.Error("empty host list accepted")
		}
	})
	if err := tb.eng.Run(); err != nil {
		t.Fatal(err)
	}
}
