package topology

import (
	"strings"
	"testing"

	"microgrid/internal/simcore"
)

func TestBuildVBNS(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, err := BuildVBNS(eng, VBNSConfig{HostsPerSite: 2, BottleneckBps: OC3Bps})
	if err != nil {
		t.Fatal(err)
	}
	u, i := nw.Node("ucsd0"), nw.Node("uiuc0")
	if u == nil || i == nil {
		t.Fatal("site hosts missing")
	}
	d, hops, ok := nw.PathDelay(u, i)
	if !ok {
		t.Fatal("no cross-country path")
	}
	// LAN 25us + campus 100us + access 1ms + backbone 28ms + access 1ms +
	// campus 100us + LAN 25us ≈ 30.25ms over 7 hops.
	if hops != 7 {
		t.Fatalf("hops = %d, want 7", hops)
	}
	want := 25*simcore.Microsecond*2 + 200*simcore.Microsecond + 2*simcore.Millisecond + 28*simcore.Millisecond
	if d != want {
		t.Fatalf("delay = %v, want %v", d, want)
	}
	bw, _ := nw.PathBottleneckBps(u, i)
	if bw != 100e6 { // LAN is the bottleneck when backbone is OC3
		t.Fatalf("bottleneck = %v", bw)
	}
	// Same-site path stays on the LAN.
	d, hops, _ = nw.PathDelay(nw.Node("ucsd0"), nw.Node("ucsd1"))
	if hops != 2 || d != 50*simcore.Microsecond {
		t.Fatalf("intra-site d=%v hops=%d", d, hops)
	}
}

func TestBuildVBNSBottleneckSweep(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, err := BuildVBNS(eng, VBNSConfig{HostsPerSite: 1, BottleneckBps: 10e6})
	if err != nil {
		t.Fatal(err)
	}
	bw, _ := nw.PathBottleneckBps(nw.Node("ucsd0"), nw.Node("uiuc0"))
	if bw != 10e6 {
		t.Fatalf("bottleneck = %v", bw)
	}
}

func TestBuildVBNSValidation(t *testing.T) {
	if _, err := BuildVBNS(simcore.NewEngine(1), VBNSConfig{}); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

const specText = `
# test topology
topology demo
host a 10.0.0.1
host b 10.0.0.2
router r
link a r 100Mbps 25us
link r b 622Mb/s 28ms queue=512KB loss=0.01
`

func TestParseSpecAndBuild(t *testing.T) {
	spec, err := ParseSpecAt("<topology>", 1, strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "demo" || len(spec.Hosts) != 2 || len(spec.Routers) != 1 || len(spec.Links) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Links[1].QueueBytes != 512<<10 || spec.Links[1].LossProb != 0.01 {
		t.Fatalf("link opts = %+v", spec.Links[1])
	}
	eng := simcore.NewEngine(1)
	nw, err := spec.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	d, hops, ok := nw.PathDelay(nw.Node("a"), nw.Node("b"))
	if !ok || hops != 2 || d != 28*simcore.Millisecond+25*simcore.Microsecond {
		t.Fatalf("d=%v hops=%d", d, hops)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"nonsense directive",
		"host onlyname",
		"host a not-an-addr", // caught at Build, not parse
		"router",
		"link a b 100Mbps",
		"link a b junk 25us",
		"link a b 100Mbps junk",
		"link a b 100Mbps 25us bogus",
		"link a b 100Mbps 25us loss=2",
		"link a b 100Mbps 25us queue=xyz",
		"topology",
	}
	for _, text := range bad {
		if text == "host a not-an-addr" {
			spec, err := ParseSpecAt("<topology>", 1, strings.NewReader(text))
			if err != nil {
				t.Errorf("ParseSpecAt(%q) rejected at parse; want Build-time error", text)
				continue
			}
			if _, err := spec.Build(simcore.NewEngine(1)); err == nil {
				t.Errorf("Build(%q) accepted bad address", text)
			}
			continue
		}
		if _, err := ParseSpecAt("<topology>", 1, strings.NewReader(text)); err == nil {
			t.Errorf("ParseSpecAt(%q) accepted", text)
		}
	}
}

func TestSpecBuildUnknownLinkNode(t *testing.T) {
	spec := &Spec{Links: []LinkSpec{{A: "x", B: "y", BandwidthBps: 1e6}}}
	if _, err := spec.Build(simcore.NewEngine(1)); err == nil {
		t.Fatal("unknown link endpoints accepted")
	}
}

// A link without positive bandwidth is an error, never a netsim panic:
// parsed, it points at the bandwidth token; built from a programmatic
// spec, Apply refuses it.
func TestZeroBandwidthLink(t *testing.T) {
	_, err := ParseSpecAt("<topology>", 1, strings.NewReader("host a 1.0.0.1\nhost b 1.0.0.2\nlink a b 0Mbps 25us\n"))
	if pe, ok := err.(*ParseError); !ok || pe.Line != 3 || pe.Token != "0Mbps" {
		t.Fatalf("parse error = %v, want one at line 3 on 0Mbps", err)
	}
	for _, bw := range []float64{0, -1e6} {
		spec := &Spec{
			Hosts: []HostSpec{{Name: "a", Addr: "1.0.0.1"}, {Name: "b", Addr: "1.0.0.2"}},
			Links: []LinkSpec{{A: "a", B: "b", BandwidthBps: bw, Delay: simcore.Microsecond}},
		}
		if _, err := spec.Build(simcore.NewEngine(1)); err == nil || !strings.Contains(err.Error(), "positive bandwidth") {
			t.Fatalf("bandwidth %g: Build error = %v", bw, err)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	spec, err := ParseSpecAt("<topology>", 1, strings.NewReader(specText))
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := ParseSpecAt("<topology>", 1, strings.NewReader(spec.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, spec.String())
	}
	if spec2.Name != spec.Name || len(spec2.Links) != len(spec.Links) {
		t.Fatalf("round trip changed spec: %+v", spec2)
	}
	if spec2.Links[1].BandwidthBps != spec.Links[1].BandwidthBps ||
		spec2.Links[1].Delay != spec.Links[1].Delay ||
		spec2.Links[1].LossProb != spec.Links[1].LossProb {
		t.Fatalf("link round trip: %+v vs %+v", spec2.Links[1], spec.Links[1])
	}
}
