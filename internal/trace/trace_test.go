package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseCategories(t *testing.T) {
	cases := []struct {
		in   string
		want Category
		err  bool
	}{
		{"all", CatAll, false},
		{"", 0, false},
		{"net,mpi", CatNet | CatMPI, false},
		{"all,-engine", CatAll &^ CatEngine, false},
		{" cpu , link ", CatCPU | CatLink, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseCategories(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseCategories(%q) err=%v want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseCategories(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if CatAll != 1<<9-1 {
		t.Fatalf("CatAll = %d, want 511", CatAll)
	}
}

func TestCategoryString(t *testing.T) {
	if got := (CatNet | CatMPI).String(); got != "net,mpi" {
		t.Errorf("String() = %q, want %q", got, "net,mpi")
	}
	if got := Category(0).String(); got != "none" {
		t.Errorf("String() = %q, want %q", got, "none")
	}
	// Every single-bit category must round-trip through parse.
	for _, cn := range catNames {
		got, err := ParseCategories(cn.c.String())
		if err != nil || got != cn.c {
			t.Errorf("round-trip %v: got %v err %v", cn.c, got, err)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled(CatNet) {
		t.Fatal("nil recorder reported enabled")
	}
	// Emits on a nil recorder must be no-ops, not panics.
	r.Event(CatNet, "hop", Attr{})
	r.Span(CatCPU, "slice", 0, 1, Attr{})
	r.Dispatch(0)
	r.Hop(0, 1, 1500, "l", "data")
}

func TestRingDropCounting(t *testing.T) {
	r := NewRecorder(4, CatAll)
	var clock int64
	r.SetClock(func() int64 { return clock })
	for i := 0; i < 10; i++ {
		clock = int64(i)
		r.Event(CatNet, "hop", Attr{Bytes: int64(i)})
	}
	if r.Emitted() != 10 {
		t.Fatalf("Emitted = %d, want 10", r.Emitted())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first, and the oldest retained is emission #7 (t=6).
	for i, ev := range evs {
		if ev.T != int64(6+i) || ev.Seq != uint64(7+i) {
			t.Errorf("event %d: T=%d Seq=%d, want T=%d Seq=%d", i, ev.T, ev.Seq, 6+i, 7+i)
		}
	}
}

func TestMaskGating(t *testing.T) {
	r := NewRecorder(16, CatNet)
	r.Event(CatCPU, "slice", Attr{})
	if r.Emitted() != 0 {
		t.Fatal("masked-out category was recorded")
	}
	r.Event(CatNet, "send", Attr{})
	r.Event(CatCPU, "slice", Attr{})
	if r.Emitted() != 1 {
		t.Fatalf("Emitted = %d, want 1", r.Emitted())
	}
}

func sampleRuns() []Run {
	r := NewRecorder(64, CatAll)
	r.Label = "sample"
	var clock int64
	r.SetClock(func() int64 { return clock })
	clock = 10
	r.Event(CatMPI, "send", Attr{Host: "h0", Rank: 0, Peer: 1, Bytes: 128})
	clock = 30
	r.Event(CatMPI, "recv", Attr{Host: "h1", Rank: 1, Peer: 0, Bytes: 128})
	r.Span(CatNet, "hop", 12, 15, Attr{Link: "h0-h1", Bytes: 128})
	clock = 50
	r.Event(CatMPI, "send", Attr{Host: "h1", Rank: 1, Peer: 0, Bytes: 64})
	clock = 90
	r.Event(CatMPI, "recv", Attr{Host: "h0", Rank: 0, Peer: 1, Bytes: 64})
	r.Span(CatCPU, "slice", 30, 20, Attr{Host: "h1", Detail: "rank1"})
	return []Run{r.Snapshot()}
}

func TestJSONLRoundTrip(t *testing.T) {
	runs := sampleRuns()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, runs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rounds = %d, want 1", len(got))
	}
	g, w := got[0], runs[0]
	if g.Label != w.Label || g.BufSize != w.BufSize || g.Emitted != w.Emitted || g.Dropped != w.Dropped {
		t.Fatalf("run header/footer mismatch: %+v vs %+v", g, w)
	}
	if len(g.Events) != len(w.Events) {
		t.Fatalf("events = %d, want %d", len(g.Events), len(w.Events))
	}
	for i := range g.Events {
		if g.Events[i] != w.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, g.Events[i], w.Events[i])
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	runs := sampleRuns()
	var a, b, ca, cb bytes.Buffer
	if err := WriteJSONL(&a, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSONL is not deterministic")
	}
	if err := WriteChrome(&ca, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&cb, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("WriteChrome is not deterministic")
	}
	if !strings.Contains(ca.String(), `"dropped_events":"0"`) {
		t.Error("Chrome export missing dropped_events counter")
	}
}

func TestSummarySurfacesDrops(t *testing.T) {
	r := NewRecorder(2, CatAll)
	r.Label = "drops"
	for i := 0; i < 5; i++ {
		r.Event(CatNet, "hop", Attr{})
	}
	out := Summary([]Run{r.Snapshot()})
	if !strings.Contains(out, "dropped 3") {
		t.Fatalf("summary does not surface dropped count:\n%s", out)
	}
	if !strings.Contains(out, "WARNING") {
		t.Fatalf("summary does not warn on drops:\n%s", out)
	}
}

func TestCriticalPath(t *testing.T) {
	run := sampleRuns()[0]
	steps, ok := CriticalPath(run)
	if !ok {
		t.Fatal("no critical path found")
	}
	// Chain: send@10 r0 -> recv@30 r1 (message), recv@30..send@50 r1
	// (compute), send@50 r1 -> recv@90 r0 (message).
	want := []PathStep{
		{Kind: "message", Rank: 0, Peer: 1, From: 10, To: 30},
		{Kind: "compute", Rank: 1, Peer: 1, From: 30, To: 50},
		{Kind: "message", Rank: 1, Peer: 0, From: 50, To: 90},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %+v, want %+v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}
	out := FormatCriticalPath(run, 0)
	if !strings.Contains(out, "message rank 1 -> rank 0") {
		t.Errorf("unexpected critical-path rendering:\n%s", out)
	}
}

// TestCriticalPathDroppedSendsTerminate pins the walk's termination
// when ring-buffer drops misalign FIFO matching: each rank's retained
// recv pairs with the *other* rank's later send (the earlier sends were
// overwritten), so both match edges point forward in the timeline.
// Following them used to cycle forever; they must be skipped.
func TestCriticalPathDroppedSendsTerminate(t *testing.T) {
	r := NewRecorder(64, CatAll)
	r.Label = "dropped-sends"
	var clock int64
	r.SetClock(func() int64 { return clock })
	clock = 10
	r.Event(CatMPI, "recv", Attr{Host: "h0", Rank: 0, Peer: 1})
	clock = 20
	r.Event(CatMPI, "recv", Attr{Host: "h1", Rank: 1, Peer: 0})
	clock = 30
	r.Event(CatMPI, "send", Attr{Host: "h0", Rank: 0, Peer: 1})
	clock = 40
	r.Event(CatMPI, "send", Attr{Host: "h1", Rank: 1, Peer: 0})
	steps, ok := CriticalPath(r.Snapshot())
	if !ok {
		t.Fatal("no critical path found")
	}
	// send@40 walks back to rank 1's recv@20; its only match is the
	// forward edge to send@30, so the chain ends there as compute.
	want := []PathStep{{Kind: "compute", Rank: 1, Peer: 1, From: 20, To: 40}}
	if len(steps) != len(want) || steps[0] != want[0] {
		t.Fatalf("steps = %+v, want %+v", steps, want)
	}
}

func TestLinkAndHostReports(t *testing.T) {
	run := sampleRuns()[0]
	links := LinkReport(run, 10)
	if !strings.Contains(links, "h0-h1") || !strings.Contains(links, "1 pkts") {
		t.Errorf("link report missing hop aggregation:\n%s", links)
	}
	hosts := HostReport(run)
	if !strings.Contains(hosts, "h1") || !strings.Contains(hosts, "rank1") {
		t.Errorf("host report missing slice aggregation:\n%s", hosts)
	}
}

func TestSortByTime(t *testing.T) {
	evs := []Event{
		{T: 5, Seq: 3},
		{T: 1, Seq: 2},
		{T: 5, Seq: 1},
	}
	SortByTime(evs)
	if evs[0].Seq != 2 || evs[1].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("bad order: %+v", evs)
	}
}

func BenchmarkRecorderDisabled(b *testing.B) {
	r := NewRecorder(1024, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled(CatNet) {
			r.Event(CatNet, "hop", Attr{Bytes: 1})
		}
	}
}

func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder(1024, CatAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Event(CatNet, "hop", Attr{Bytes: 1})
	}
}
