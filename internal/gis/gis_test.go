package gis

import (
	"strings"
	"testing"
	"testing/quick"

	"microgrid/internal/simcore"
)

func TestDNNormalize(t *testing.T) {
	d := DN("HN=vm.ucsd.edu , ou=Concurrent Systems Architecture Group,  o=Grid")
	want := DN("hn=vm.ucsd.edu,ou=Concurrent Systems Architecture Group,o=Grid")
	if d.Normalize() != want {
		t.Fatalf("normalize = %q", d.Normalize())
	}
}

func TestDNParentRDN(t *testing.T) {
	d := DN("hn=a, ou=b, o=c")
	if d.RDN() != "hn=a" {
		t.Fatalf("rdn = %q", d.RDN())
	}
	if d.Parent() != "ou=b,o=c" {
		t.Fatalf("parent = %q", d.Parent())
	}
	if DN("o=c").Parent() != "" {
		t.Fatal("root parent not empty")
	}
}

func TestDNIsDescendantOf(t *testing.T) {
	d := DN("hn=a, ou=b, o=c")
	if !d.IsDescendantOf("ou=b, o=c") || !d.IsDescendantOf("o=c") {
		t.Fatal("descendant checks failed")
	}
	if d.IsDescendantOf(d) {
		t.Fatal("self counted as descendant")
	}
	if d.IsDescendantOf("o=x") {
		t.Fatal("wrong ancestor matched")
	}
	if !d.IsDescendantOf("") {
		t.Fatal("root should contain everything")
	}
}

func TestEntryAttrs(t *testing.T) {
	e := NewEntry("hn=a, o=c")
	e.Set("CpuSpeed", "10")
	e.Add("Member", "x").Add("Member", "y")
	if e.Get("cpuspeed") != "10" {
		t.Fatal("case-insensitive get failed")
	}
	if got := e.GetAll("member"); len(got) != 2 || got[1] != "y" {
		t.Fatalf("members = %v", got)
	}
	if !e.Has("member") || e.Has("absent") {
		t.Fatal("Has wrong")
	}
	e.Set("Member", "z")
	if got := e.GetAll("member"); len(got) != 1 || got[0] != "z" {
		t.Fatalf("Set did not replace: %v", got)
	}
}

func buildTestDir(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	add := func(dn string, kv ...string) {
		e := NewEntry(DN(dn))
		for i := 0; i+1 < len(kv); i += 2 {
			e.Add(kv[i], kv[i+1])
		}
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	add("o=Grid")
	add("ou=CSAG, o=Grid")
	add("hn=csag-226-67.ucsd.edu, ou=CSAG, o=Grid", "CpuSpeed", "533")
	add("hn=vm.ucsd.edu, ou=CSAG, o=Grid",
		AttrIsVirtual, "Yes", AttrConfigName, "Slow_CPU_Configuration",
		AttrMappedPhysical, "csag-226-67.ucsd.edu", AttrCPUSpeed, "10",
		AttrMemorySize, "100MBytes")
	add("nn=1.11.11.0, nn=1.11.0.0, ou=CSAG, o=Grid",
		AttrIsVirtual, "Yes", AttrConfigName, "Slow_CPU_Configuration",
		AttrNwType, "LAN", AttrSpeed, "100Mbps 50ms")
	return s
}

func TestSearchScopes(t *testing.T) {
	s := buildTestDir(t)
	if got := len(s.Search("o=Grid", ScopeBase, nil)); got != 1 {
		t.Fatalf("base = %d", got)
	}
	if got := len(s.Search("o=Grid", ScopeOneLevel, nil)); got != 1 {
		t.Fatalf("onelevel = %d", got)
	}
	if got := len(s.Search("o=Grid", ScopeSubtree, nil)); got != 5 {
		t.Fatalf("subtree = %d", got)
	}
	if got := len(s.Search("ou=CSAG, o=Grid", ScopeOneLevel, nil)); got != 2 {
		t.Fatalf("csag onelevel = %d", got)
	}
}

func TestSearchFilter(t *testing.T) {
	s := buildTestDir(t)
	got := s.Search("", ScopeSubtree, Eq(AttrIsVirtual, "Yes"))
	if len(got) != 2 {
		t.Fatalf("virtual entries = %d", len(got))
	}
	got = s.Search("", ScopeSubtree, And(Eq(AttrIsVirtual, "Yes"), Present(AttrCPUSpeed)))
	if len(got) != 1 || got[0].DN.RDN() != "hn=vm.ucsd.edu" {
		t.Fatalf("got %v", got)
	}
	got = s.Search("", ScopeSubtree, Eq("cpuspeed", "5*"))
	if len(got) != 1 || got[0].Get("cpuspeed") != "533" {
		t.Fatalf("wildcard got %v", got)
	}
	got = s.Search("", ScopeSubtree, Not(Present(AttrIsVirtual)))
	if len(got) != 3 {
		t.Fatalf("not-virtual = %d", len(got))
	}
}

func TestAddDuplicateDeleteLookup(t *testing.T) {
	s := NewServer()
	e := NewEntry("hn=a, o=g")
	if err := s.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewEntry("HN=a , o=g")); err == nil {
		t.Fatal("duplicate (normalized) accepted")
	}
	if s.Lookup("hn=a,o=g") == nil {
		t.Fatal("lookup failed")
	}
	if !s.Delete("hn=a, o=g") || s.Delete("hn=a, o=g") {
		t.Fatal("delete semantics wrong")
	}
	s.Upsert(e)
	s.Upsert(NewEntry(e.DN).Set("x", "1"))
	if s.Len() != 1 || s.Lookup(e.DN).Get("x") != "1" {
		t.Fatal("upsert failed")
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("(&(Is_Virtual_Resource=Yes)(Configuration_Name=Slow_CPU*))")
	if err != nil {
		t.Fatal(err)
	}
	s := buildTestDir(t)
	if got := s.Search("", ScopeSubtree, f); len(got) != 2 {
		t.Fatalf("parsed filter matched %d", len(got))
	}
	f, err = ParseFilter("(|(CpuSpeed=533)(!(Is_Virtual_Resource=*)))")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Search("", ScopeSubtree, f); len(got) != 3 {
		t.Fatalf("or filter matched %d", len(got))
	}
	for _, bad := range []string{"", "(", "(a=b", "(&)", "(!)", "x(a=b)", "(a=b)x", "(=v)"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) accepted", bad)
		}
	}
}

func TestFilterString(t *testing.T) {
	f := And(Eq("a", "1"), Or(Present("b"), Not(Eq("c", "3"))))
	want := "(&(a=1)(|(b=*)(!(c=3))))"
	if f.String() != want {
		t.Fatalf("String = %q", f.String())
	}
	// Round-trip through the parser.
	g, err := ParseFilter(f.String())
	if err != nil || g.String() != want {
		t.Fatalf("round trip = %q, %v", g, err)
	}
}

func TestWildcardMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a*", "abc", true},
		{"*c", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "acb", false},
		{"*", "anything", true},
		{"*", "", true},
	}
	for _, c := range cases {
		if got := wildcardMatch(c.pattern, c.s); got != c.want {
			t.Errorf("wildcardMatch(%q, %q) = %v", c.pattern, c.s, got)
		}
	}
}

func TestLDIFRoundTrip(t *testing.T) {
	s := buildTestDir(t)
	text := DumpLDIF(s)
	s2 := NewServer()
	if err := LoadLDIF(s2, strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round trip lost entries: %d vs %d", s2.Len(), s.Len())
	}
	vm := s2.Lookup("hn=vm.ucsd.edu, ou=CSAG, o=Grid")
	if vm == nil || vm.Get(AttrCPUSpeed) != "10" || vm.Get(AttrMemorySize) != "100MBytes" {
		t.Fatalf("vm record corrupted: %v", vm)
	}
}

func TestParseLDIFErrors(t *testing.T) {
	if _, err := ParseLDIF(strings.NewReader("attr: before dn\n")); err == nil {
		t.Fatal("attribute before dn accepted")
	}
	if _, err := ParseLDIF(strings.NewReader("dn: o=g\nnocolon\n")); err == nil {
		t.Fatal("line without colon accepted")
	}
	es, err := ParseLDIF(strings.NewReader("# comment\n\ndn: o=g\na: 1\n"))
	if err != nil || len(es) != 1 || es[0].Get("a") != "1" {
		t.Fatalf("comment handling: %v %v", es, err)
	}
}

// TestVirtualGISRecords reproduces paper Figure 3: the example virtual host
// and network records round-trip through typed records.
func TestVirtualGISRecords(t *testing.T) {
	h := VirtualHost{
		Hostname:       "vm.ucsd.edu",
		OrgUnit:        "Concurrent Systems Architecture Group",
		ConfigName:     "Slow_CPU_Configuration",
		MappedPhysical: "csag-226-67.ucsd.edu",
		CPUSpeedMIPS:   10,
		MemoryBytes:    100 << 20,
		VirtualIP:      "1.11.11.2",
	}
	e := h.Entry()
	if e.Get(AttrIsVirtual) != "Yes" || e.Get(AttrMemorySize) != "100MBytes" {
		t.Fatalf("entry = %v", e)
	}
	back, err := ParseVirtualHost(e)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, h)
	}

	n := VirtualNetwork{
		Prefix:       "1.11.11.0",
		Parent:       "1.11.0.0",
		OrgUnit:      "Concurrent Systems Architecture Group",
		ConfigName:   "Slow_CPU_Configuration",
		Type:         "LAN",
		BandwidthBps: 100e6,
		Delay:        50 * simcore.Millisecond,
	}
	ne := n.Entry()
	if ne.Get(AttrSpeed) != "100Mbps 50ms" {
		t.Fatalf("speed attr = %q", ne.Get(AttrSpeed))
	}
	nBack, err := ParseVirtualNetwork(ne)
	if err != nil {
		t.Fatal(err)
	}
	if nBack != n {
		t.Fatalf("round trip:\n got %+v\nwant %+v", nBack, n)
	}
}

func TestVirtualResourcesQuery(t *testing.T) {
	s := buildTestDir(t)
	hosts, nets, err := VirtualResources(s, "Slow_CPU_Configuration")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 || hosts[0].Hostname != "vm.ucsd.edu" || hosts[0].CPUSpeedMIPS != 10 {
		t.Fatalf("hosts = %+v", hosts)
	}
	if len(nets) != 1 || nets[0].BandwidthBps != 100e6 || nets[0].Delay != 50*simcore.Millisecond {
		t.Fatalf("nets = %+v", nets)
	}
	if nets[0].Parent != "1.11.0.0" {
		t.Fatalf("parent prefix = %q", nets[0].Parent)
	}
	hosts, nets, err = VirtualResources(s, "Nonexistent")
	if err != nil || len(hosts) != 0 || len(nets) != 0 {
		t.Fatalf("nonexistent config returned %v %v %v", hosts, nets, err)
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"100Mbps", 100e6},
		{"1.2Gbps", 1.2e9},
		{"622Mb/s", 622e6},
		{"10Mb/s", 10e6},
		{"56Kbps", 56e3},
		{"9600bps", 9600},
		{"1Mbps", 1e6},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBandwidth(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "fast", "-1Mbps"} {
		if _, err := ParseBandwidth(bad); err == nil {
			t.Errorf("ParseBandwidth(%q) accepted", bad)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"100MBytes", 100 << 20},
		{"512KB", 512 << 10},
		{"1GB", 1 << 30},
		{"2048", 2048},
		{"1.5KB", 1536},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseBytes("lots"); err == nil {
		t.Error("ParseBytes(lots) accepted")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{100 << 20, "100MBytes"},
		{1 << 30, "1GBytes"},
		{512 << 10, "512KBytes"},
		{1000, "1000Bytes"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseSpeedErrors(t *testing.T) {
	for _, bad := range []string{"", "100Mbps 50ms extra", "junk", "100Mbps badlat"} {
		if _, _, err := ParseSpeed(bad); err == nil {
			t.Errorf("ParseSpeed(%q) accepted", bad)
		}
	}
}

// Property: DN normalization is idempotent.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(parts []string) bool {
		var sb strings.Builder
		for i, p := range parts {
			if i > 0 {
				sb.WriteString(",")
			}
			// Constrain to plausible RDN characters to keep the test
			// focused on structure, not arbitrary Unicode.
			clean := strings.Map(func(r rune) rune {
				if r == ',' || r == '\n' {
					return '_'
				}
				return r
			}, p)
			sb.WriteString("k=" + clean)
		}
		d := DN(sb.String())
		return d.Normalize() == d.Normalize().Normalize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bytes round-trip through Format/Parse for KB-aligned sizes.
func TestPropertyBytesRoundTrip(t *testing.T) {
	f := func(kb uint16) bool {
		n := int64(kb) << 10
		got, err := ParseBytes(FormatBytes(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
