package core

import (
	"math"
	"strings"
	"testing"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
	"microgrid/internal/scenario"
)

const testLDIF = `
dn: ou=Concurrent Systems Architecture Group, o=Grid

dn: hn=vma.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Test_Config
Mapped_Physical_Resource: csag-226-67.ucsd.edu
CpuSpeed: 533
MemorySize: 256MBytes
Virtual_IP: 1.11.11.1

dn: hn=vmb.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Test_Config
Mapped_Physical_Resource: csag-226-68.ucsd.edu
CpuSpeed: 533
MemorySize: 256MBytes
Virtual_IP: 1.11.11.2

dn: nn=1.11.11.0, nn=1.11.0.0, ou=Concurrent Systems Architecture Group, o=Grid
Is_Virtual_Resource: Yes
Configuration_Name: Test_Config
nwType: LAN
speed: 100Mbps 25us
`

func ldifServer(t *testing.T) *gis.Server {
	t.Helper()
	s := gis.NewServer()
	if err := gis.LoadLDIF(s, strings.NewReader(testLDIF)); err != nil {
		t.Fatal(err)
	}
	return s
}

// gisGrid builds a configuration of server's records through the
// scenario path, as a `gis file=... config=... phys=...` line does.
func gisGrid(server *gis.Server, config string, phys map[string]float64, rate float64) (*MicroGrid, error) {
	return BuildScenarioEnv(&scenario.Scenario{
		Name: "gis", Seed: 1, Rate: rate,
		GIS: &scenario.GISRef{File: "unused.ldif", Config: config, PhysMIPS: phys},
	}, ScenarioEnv{GIS: server})
}

func TestBuildFromGISDirect(t *testing.T) {
	s := ldifServer(t)
	m, err := gisGrid(s, "Test_Config", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsDirect() {
		t.Fatal("nil PhysMIPS should build direct mode")
	}
	if len(m.Hosts) != 2 || m.Hosts[0] != "vma.ucsd.edu" {
		t.Fatalf("hosts = %v", m.Hosts)
	}
	h := m.Grid.Host("vma.ucsd.edu")
	if h.CPUSpeedMIPS != 533 || h.IP.String() != "1.11.11.1" || h.Mem.Limit() != 256<<20 {
		t.Fatalf("host = %+v", h)
	}
	// Run an app end-to-end on the GIS-defined grid.
	report, err := m.RunApp("hello", func(ctx *AppContext) error {
		ctx.Proc.ComputeVirtualSeconds(0.1)
		return ctx.Comm.Barrier()
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.VirtualElapsed.Seconds()-0.1) > 0.01 {
		t.Fatalf("elapsed = %v", report.VirtualElapsed)
	}
}

func TestBuildFromGISEmulated(t *testing.T) {
	s := ldifServer(t)
	m, err := gisGrid(s, "Test_Config", map[string]float64{
		"csag-226-67.ucsd.edu": 533,
		"csag-226-68.ucsd.edu": 533,
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsDirect() {
		t.Fatal("PhysMIPS should build emulated mode")
	}
	h := m.Grid.Host("vma.ucsd.edu")
	if math.Abs(h.Fraction-0.5) > 1e-9 {
		t.Fatalf("fraction = %v", h.Fraction)
	}
	if h.Phys.Name != "csag-226-67.ucsd.edu" {
		t.Fatalf("mapping = %s", h.Phys.Name)
	}
	report, err := m.RunApp("hello", func(ctx *AppContext) error {
		ctx.Proc.ComputeVirtualSeconds(0.1)
		return nil
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.VirtualElapsed.Seconds()-0.1) > 0.02 {
		t.Fatalf("elapsed = %v", report.VirtualElapsed)
	}
}

func TestBuildFromGISSharedPhysical(t *testing.T) {
	s := gis.NewServer()
	text := strings.ReplaceAll(testLDIF, "csag-226-68", "csag-226-67") // both on one machine
	if err := gis.LoadLDIF(s, strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	m, err := gisGrid(s, "Test_Config", map[string]float64{"csag-226-67.ucsd.edu": 533}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Grid.Host("vma.ucsd.edu")
	b := m.Grid.Host("vmb.ucsd.edu")
	if a.Phys != b.Phys {
		t.Fatal("hosts should share the physical machine")
	}
	if math.Abs(a.Fraction-0.25) > 1e-9 || math.Abs(b.Fraction-0.25) > 1e-9 {
		t.Fatalf("fractions = %v %v", a.Fraction, b.Fraction)
	}
}

func TestBuildFromGISErrors(t *testing.T) {
	s := ldifServer(t)
	if _, err := gisGrid(s, "No_Such_Config", nil, 0); err == nil {
		t.Fatal("unknown config accepted")
	}
	if _, err := gisGrid(s, "Test_Config", map[string]float64{"only-one": 533}, 0); err == nil {
		t.Fatal("missing calibration accepted")
	}
	// Record without an IP.
	bad := gis.NewServer()
	e := gis.VirtualHost{
		Hostname: "x", OrgUnit: "O", ConfigName: "C",
		MappedPhysical: "p", CPUSpeedMIPS: 100, MemoryBytes: 1 << 20,
	}.Entry()
	bad.Upsert(e)
	if _, err := gisGrid(bad, "C", nil, 0); err == nil {
		t.Fatal("record without Virtual_IP accepted")
	}
}

// badHostServer builds a one-host directory with the given host entry
// fields, for exercising the per-record validation paths.
func badHostServer(h gis.VirtualHost) *gis.Server {
	s := gis.NewServer()
	s.Upsert(h.Entry())
	return s
}

func TestBuildFromGISRecordErrors(t *testing.T) {
	base := gis.VirtualHost{
		Hostname: "x", OrgUnit: "O", ConfigName: "C",
		MappedPhysical: "p", CPUSpeedMIPS: 100, MemoryBytes: 1 << 20,
		VirtualIP: "1.11.11.1",
	}

	empty := gis.NewServer()
	if _, err := gisGrid(empty, "C", nil, 0); err == nil ||
		!strings.Contains(err.Error(), "no virtual hosts") {
		t.Fatalf("empty directory: %v", err)
	}

	badIP := base
	badIP.VirtualIP = "not-an-ip"
	if _, err := gisGrid(badHostServer(badIP), "C", nil, 0); err == nil ||
		!strings.Contains(err.Error(), "host x") {
		t.Fatalf("malformed Virtual_IP: %v", err)
	}

	noCPU := base
	noCPU.CPUSpeedMIPS = 0
	if _, err := gisGrid(badHostServer(noCPU), "C", nil, 0); err == nil ||
		!strings.Contains(err.Error(), "no CpuSpeed") {
		t.Fatalf("missing CpuSpeed: %v", err)
	}

	noPhys := base
	noPhys.MappedPhysical = ""
	if _, err := gisGrid(badHostServer(noPhys), "C", map[string]float64{"p": 533}, 0); err == nil ||
		!strings.Contains(err.Error(), "Mapped_Physical_Resource") {
		t.Fatalf("missing physical mapping: %v", err)
	}

	// Two records claiming one address name both hosts.
	dupIP := gis.NewServer()
	dupIP.Upsert(base.Entry())
	twin := base
	twin.Hostname = "y"
	dupIP.Upsert(twin.Entry())
	if _, err := gisGrid(dupIP, "C", nil, 0); err == nil ||
		!strings.Contains(err.Error(), "hosts x and y share Virtual_IP 1.11.11.1") {
		t.Fatalf("duplicate Virtual_IP: %v", err)
	}

	// The same record builds fine in direct mode: no mapping needed.
	if _, err := gisGrid(badHostServer(noPhys), "C", nil, 0); err != nil {
		t.Fatalf("direct mode should not need a mapping: %v", err)
	}
}

func TestBuildFromGISInfeasibleRate(t *testing.T) {
	s := ldifServer(t)
	if _, err := gisGrid(s, "Test_Config", map[string]float64{
		"csag-226-67.ucsd.edu": 100, // far slower than the 533 virtual
		"csag-226-68.ucsd.edu": 100,
	}, 1.0); err == nil {
		t.Fatal("infeasible rate accepted")
	}
}

// TestGISScenarioHonoursDirectives runs one GIS-defined scenario with
// and without each model directive: a GIS grid assembles through the
// same path as a target-defined one, so flownet, msgcost and trace all
// take effect, and the plain scenario's report stays as it was.
func TestGISScenarioHonoursDirectives(t *testing.T) {
	run := func(extra string) (*MicroGrid, *Report) {
		t.Helper()
		s, err := scenario.ParseString("scenario gis-directives\nseed 3\n" +
			"gis file=unused.ldif config=Test_Config\n" + extra +
			"workload npb bench=IS class=S\n")
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildScenarioEnv(s, ScenarioEnv{GIS: ldifServer(t)})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.RunWorkload(s)
		if err != nil {
			t.Fatal(err)
		}
		return m, rep
	}

	plain, base := run("")
	const want = "scenario gis-directives: IS.S.2 ok\n" +
		"virtual time:    0.096 s\n" +
		"job time:        0.104 s (attempts 1)\n" +
		"network:         1877 packets delivered, 0 dropped\n" +
		"utilization:     phys-vma.ucsd.edu        4.1%\n" +
		"utilization:     phys-vmb.ucsd.edu        4.1%\n"
	if got := FormatScenarioReport("gis-directives", base); got != want ||
		base.VirtualElapsed.String() != "95.949216ms" {
		t.Fatalf("plain GIS scenario report moved (virtual %v):\n%s", base.VirtualElapsed, got)
	}
	// flowLinks counts the grid's links at flow fidelity, of all links.
	flowLinks := func(m *MicroGrid) (flow, all int) {
		for _, l := range m.Grid.Network().Links() {
			if l.Config.Fidelity == netsim.FidelityFlow {
				flow++
			}
			all++
		}
		return flow, all
	}
	if n, _ := flowLinks(plain); n != 0 || plain.Eng.Recorder() != nil {
		t.Fatal("plain GIS scenario turned on flow fidelity or tracing")
	}

	flow, rep := run("flownet\n")
	if n, all := flowLinks(flow); all == 0 || n != all {
		t.Fatalf("flownet left %d of %d GIS grid links at packet fidelity", all-n, all)
	}
	if rep.VirtualElapsed == base.VirtualElapsed {
		t.Fatalf("flownet did not change virtual time (%v)", rep.VirtualElapsed)
	}

	if _, rep := run("msgcost send=50000 perbyte=200\n"); rep.VirtualElapsed == base.VirtualElapsed {
		t.Fatalf("msgcost did not change virtual time (%v)", rep.VirtualElapsed)
	}

	traced, rep := run("trace categories=all\n")
	rec := traced.Eng.Recorder()
	if rec == nil || rec.Emitted() == 0 {
		t.Fatal("trace attached no recorder, or it recorded nothing")
	}
	if rep.VirtualElapsed != base.VirtualElapsed {
		t.Fatalf("tracing moved virtual time: %v vs %v", rep.VirtualElapsed, base.VirtualElapsed)
	}
}
