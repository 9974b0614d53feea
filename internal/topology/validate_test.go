package topology

import (
	"strings"
	"testing"
	"time"
)

// The parser rejects structurally broken specs with positioned errors;
// Validate catches the same problems in programmatic specs.

func TestParseSpecStructuralErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"dup host", "host a 1.0.0.1\nhost a 1.0.0.2\n", "duplicate node name"},
		{"dup router", "router r\nrouter r\n", "duplicate node name"},
		{"host shadows router", "router x\nhost x 1.0.0.1\n", "duplicate node name"},
		{"dup addr", "host a 1.0.0.1\nhost b 1.0.0.1\n", "duplicate host address"},
		{"self link", "host a 1.0.0.1\nlink a a 100Mbps 25us\n", "self-link"},
		{"unknown endpoint", "host a 1.0.0.1\nlink a b 100Mbps 25us\n", "not a declared host or router"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpecAt("<topology>", 1, strings.NewReader(c.text))
			if err == nil {
				t.Fatalf("parse accepted:\n%s", c.text)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			var pe *ParseError
			if !asParseError(err, &pe) {
				t.Fatalf("error %T is not a *ParseError", err)
			}
			if pe.Line < 1 {
				t.Fatalf("error not positioned: %+v", pe)
			}
		})
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestParseSpecForwardLinkReference(t *testing.T) {
	// Links may name nodes declared later in the file.
	spec, err := ParseSpecAt("<topology>", 1, strings.NewReader("link a b 100Mbps 25us\nhost a 1.0.0.1\nhost b 1.0.0.2\n"))
	if err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
	if len(spec.Links) != 1 {
		t.Fatalf("got %d links", len(spec.Links))
	}
}

func TestSpecValidate(t *testing.T) {
	good := &Spec{
		Name:    "t",
		Hosts:   []HostSpec{{Name: "a", Addr: "1.0.0.1"}, {Name: "b", Addr: "1.0.0.2"}},
		Routers: []string{"r"},
		Links: []LinkSpec{
			{A: "a", B: "r", BandwidthBps: 1e8, Delay: 25 * time.Microsecond},
			{A: "r", B: "b", BandwidthBps: 1e8, Delay: 25 * time.Microsecond},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"dup host", func(s *Spec) { s.Hosts = append(s.Hosts, HostSpec{Name: "a", Addr: "1.0.0.3"}) }, "duplicate node name"},
		{"dup addr", func(s *Spec) { s.Hosts = append(s.Hosts, HostSpec{Name: "c", Addr: "1.0.0.1"}) }, "duplicate host address"},
		{"router shadows host", func(s *Spec) { s.Routers = append(s.Routers, "a") }, "duplicate node name"},
		{"self link", func(s *Spec) { s.Links[0].B = "a" }, "self-link"},
		{"unknown endpoint", func(s *Spec) { s.Links[0].B = "ghost" }, "not a declared host or router"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := &Spec{
				Name:    good.Name,
				Hosts:   append([]HostSpec(nil), good.Hosts...),
				Routers: append([]string(nil), good.Routers...),
				Links:   append([]LinkSpec(nil), good.Links...),
			}
			c.mutate(bad)
			err := bad.Validate()
			if err == nil {
				t.Fatal("mutated spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
