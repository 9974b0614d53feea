package virtual

import (
	"fmt"
	"strings"
	"testing"

	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
)

// lazyLAN wires n hosts h0..h(n-1) at 10.0.0.1+i behind one switch.
func lazyLAN(n int) func(*netsim.Network, func(netsim.LinkConfig) netsim.LinkConfig) error {
	return func(nw *netsim.Network, scale func(netsim.LinkConfig) netsim.LinkConfig) error {
		sw := nw.AddRouter("sw")
		cfg := scale(netsim.LinkConfig{BandwidthBps: 100e6, Delay: 25 * simcore.Microsecond})
		for i := 0; i < n; i++ {
			nw.Connect(nw.AddHost(fmt.Sprintf("h%d", i), netsim.MustParseAddr("10.0.0.1")+netsim.Addr(i)), sw, cfg)
		}
		return nil
	}
}

func lazyGrid(t *testing.T, lh LazyHosts) *Grid {
	t.Helper()
	g, err := NewGrid(simcore.NewEngine(1), Config{Direct: true, Lazy: &lh}, lazyLAN(6))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A lazy grid declared by template answers every lookup from the
// network's host nodes, materializing a host only when it is touched.
func TestLazyGridTemplate(t *testing.T) {
	g := lazyGrid(t, LazyHosts{CPUSpeedMIPS: 500, MemoryBytes: 1 << 20})
	if g.DeclaredHosts() != 6 || g.MaterializedCount() != 0 {
		t.Fatalf("declared %d, materialized %d; want 6 and 0", g.DeclaredHosts(), g.MaterializedCount())
	}
	if a, err := g.Resolve("h3"); err != nil || a != netsim.MustParseAddr("10.0.0.4") {
		t.Fatalf("Resolve(h3) = %v, %v", a, err)
	}
	if _, err := g.Resolve("10.0.0.6"); err != nil {
		t.Fatalf("Resolve by address: %v", err)
	}
	if g.MaterializedCount() != 0 {
		t.Fatal("Resolve materialized a host")
	}
	for _, name := range []string{"sw", "nosuch"} {
		if g.Host(name) != nil {
			t.Errorf("Host(%q) is not nil", name)
		}
		if _, err := g.Resolve(name); err == nil {
			t.Errorf("Resolve(%q) succeeded", name)
		}
	}
	h := g.Host("h2")
	if h == nil || g.Host("h2") != h || g.MaterializedCount() != 1 {
		t.Fatal("Host(h2) did not materialize exactly once")
	}
	if h.IP != netsim.MustParseAddr("10.0.0.3") || h.CPUSpeedMIPS != 500 || h.Fraction != 1 ||
		h.Phys != g.PhysHost("phys-h2") || h.Phys.SpeedMIPS() != 500 || h.Node != g.Network().Node("h2") {
		t.Fatalf("materialized h2 = %+v", h)
	}
	if got := g.Host("h4"); got == nil || got.IP != netsim.MustParseAddr("10.0.0.5") {
		t.Fatalf("Host(h4) = %v", got)
	}
	if g.DeclaredHosts() != 6 || g.MaterializedCount() != 2 {
		t.Fatalf("declared %d, materialized %d; want 6 and 2", g.DeclaredHosts(), g.MaterializedCount())
	}
	for _, name := range []string{"h0", "h1", "h3", "h5"} {
		if _, err := g.Resolve(name); err != nil {
			t.Errorf("declared %s: %v", name, err)
		}
	}
	if g.MaterializedCount() != 2 {
		t.Fatal("Resolve materialized a host")
	}
}

// Names declares a subset: the other host nodes are network nodes only.
func TestLazyGridNamedSubset(t *testing.T) {
	g := lazyGrid(t, LazyHosts{CPUSpeedMIPS: 500, Names: []string{"h4", "h1", "h4"}})
	if g.DeclaredHosts() != 2 {
		t.Fatalf("declared %d, want 2", g.DeclaredHosts())
	}
	if g.Host("h0") != nil {
		t.Fatal("undeclared h0 materialized")
	}
	if _, err := g.Resolve("h0"); err == nil {
		t.Fatal("undeclared h0 resolved")
	}
	if _, err := g.Resolve("10.0.0.1"); err == nil {
		t.Fatal("undeclared h0's address resolved")
	}
	if g.Host("h1") == nil || g.Host("h4") == nil {
		t.Fatal("declared host missing")
	}
}

// A bad declaration fails the build, never a later Host() touch.
func TestLazyGridValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Lazy: &LazyHosts{CPUSpeedMIPS: 500}}, "requires direct mode"},
		{Config{Direct: true, Lazy: &LazyHosts{}}, "host h0 needs positive CPU speed"},
		{Config{Direct: true, Lazy: &LazyHosts{Names: []string{"h5", "h1"}}}, "host h5 needs positive CPU speed"},
		{Config{Direct: true, Lazy: &LazyHosts{CPUSpeedMIPS: 500, Names: []string{"h1", "sw"}}}, "topology has no node for host sw"},
		{Config{Direct: true, Lazy: &LazyHosts{CPUSpeedMIPS: 500, Names: []string{"h9"}}}, "topology has no node for host h9"},
		{Config{Direct: true, Lazy: &LazyHosts{CPUSpeedMIPS: 500, Names: []string{}}}, "no hosts configured"},
	} {
		_, err := NewGrid(simcore.NewEngine(1), tc.cfg, lazyLAN(6))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", *tc.cfg.Lazy, err, tc.want)
		}
	}
	if _, err := NewGrid(simcore.NewEngine(1), Config{Direct: true, Lazy: &LazyHosts{CPUSpeedMIPS: 500}}, lazyLAN(0)); err == nil ||
		!strings.Contains(err.Error(), "no hosts configured") {
		t.Errorf("hostless lazy grid: err = %v", err)
	}
}
