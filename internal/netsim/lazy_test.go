package netsim

import (
	"reflect"
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// A link direction's channel is opened by the first packet sent that
// way. These tests pin that the lazy wiring behaves exactly like opening
// both channels when the link is wired, with link state changed before
// and after the first packet, and that a partitioned run opens each
// direction on its own source shard while path queries open none.

// lazyRun is one run of the failure-and-degrade script below, with every
// channel opened at wiring time when eager is set. opsFirst applies the
// first round of link changes before any packet crosses the link.
type lazyRun struct {
	deliveries []simcore.Time
	stats      [][2]DirectionStats
	events     []trace.Event
}

func runLazyScript(t *testing.T, eager, opsFirst bool) lazyRun {
	t.Helper()
	eng := simcore.NewEngine(3)
	var out lazyRun
	rec := trace.NewRecorder(0, trace.CatAll)
	rec.SetSink(func(ev trace.Event) { out.events = append(out.events, ev) })
	eng.SetRecorder(rec)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	r := nw.AddRouter("r")
	l := nw.Connect(a, r, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond, QueueBytes: 8000})
	nw.Connect(r, b, LinkConfig{BandwidthBps: 100e6, Delay: 50 * simcore.Microsecond})
	if eager {
		for _, lk := range nw.Links() {
			lk.open(0)
			lk.open(1)
		}
	}
	nw.ComputeRoutes()
	for _, nd := range []*Node{a, b} {
		nd.HandleDatagrams(9, func(Addr, Port, int, any) { out.deliveries = append(out.deliveries, eng.Now()) })
	}
	send := func() {
		burst(t, a, b, 12)
		burst(t, b, a, 12)
	}
	ops := func() {
		l.Degrade(0.5, 2, 0.25)
		l.SetDown(true)
		l.SetDown(false)
	}
	ms := func(n int) simcore.Time { return simcore.Time(n) * simcore.Time(simcore.Millisecond) }
	if opsFirst {
		eng.At(0, ops)
	} else {
		eng.At(0, send)
		eng.At(ms(100), ops)
	}
	eng.At(ms(200), send)
	eng.At(ms(203), func() { l.SetDown(true) }) // packets queued and in flight
	eng.At(ms(210), func() { l.SetDown(false) })
	eng.At(ms(220), l.Restore)
	eng.At(ms(230), send)
	eng.At(ms(400), func() { l.Degrade(0, 0, 0.5) })
	eng.At(ms(410), send)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, lk := range nw.Links() {
		out.stats = append(out.stats, lk.Stats())
	}
	return out
}

func TestLazyChannelsMatchEager(t *testing.T) {
	for _, opsFirst := range []bool{true, false} {
		lazy, eager := runLazyScript(t, false, opsFirst), runLazyScript(t, true, opsFirst)
		if len(lazy.deliveries) == 0 || len(lazy.events) == 0 {
			t.Fatalf("opsFirst=%v: nothing delivered or traced", opsFirst)
		}
		if !reflect.DeepEqual(lazy.deliveries, eager.deliveries) {
			t.Errorf("opsFirst=%v: delivery times differ:\nlazy  %v\neager %v", opsFirst, lazy.deliveries, eager.deliveries)
		}
		if !reflect.DeepEqual(lazy.stats, eager.stats) {
			t.Errorf("opsFirst=%v: link stats differ:\nlazy  %+v\neager %+v", opsFirst, lazy.stats, eager.stats)
		}
		if !reflect.DeepEqual(lazy.events, eager.events) {
			t.Errorf("opsFirst=%v: traces differ (%d vs %d events)", opsFirst, len(lazy.events), len(eager.events))
		}
		if st := lazy.stats[0][0]; st.Lost == 0 || st.Dropped == 0 || st.Aborted == 0 {
			t.Errorf("opsFirst=%v: a->r lost %d, dropped %d and aborted %d; the script should do all three",
				opsFirst, st.Lost, st.Dropped, st.Aborted)
		}
	}
}

// A direction that never carried a packet reports zeros under its name.
func TestIdleDirectionStats(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 1e6, Delay: simcore.Millisecond})
	eng.At(0, func() { burst(t, a, b, 1) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Links()[0].Stats()
	if st[0].Sent != 1 || st[1] != (DirectionStats{From: "b", To: "a"}) {
		t.Fatalf("stats = %+v, want one packet a->b and an idle b->a", st)
	}
	if got := nw.OpenDirections(); !reflect.DeepEqual(got, []string{"a->b"}) {
		t.Fatalf("open directions %v, want [a->b]", got)
	}
}

// TestLazyChannelsPartitioned starts the first traffic on a cross-shard
// link in both directions at the same instant, while each shard also
// queries the path the other shard sends on. Each direction's channel is
// opened by its own source shard; the path queries read only link
// configs, so under -race a query that opened a channel would race with
// the send on the other shard.
func TestLazyChannelsPartitioned(t *testing.T) {
	pe := simcore.NewParallelEngine(1, 2)
	nw := New(pe.Shard(0))
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	l := nw.Connect(a, b, LinkConfig{BandwidthBps: 1e6, Delay: simcore.Millisecond, Fidelity: FidelityFlow})
	nw.ComputeRoutes()
	nw.SetNodeEngine(b, pe.Shard(1))
	query := func(from, to *Node) {
		if _, hops, ok := nw.PathDelay(from, to); !ok || hops != 1 {
			t.Errorf("PathDelay %s->%s: %d hops, ok=%v", from.Name, to.Name, hops, ok)
		}
		if !nw.PathAllFlow(from, to) {
			t.Errorf("PathAllFlow %s->%s = false", from.Name, to.Name)
		}
	}
	query(a, b)
	query(b, a)
	if got := nw.OpenDirections(); len(got) != 0 {
		t.Fatalf("path queries opened %v", got)
	}
	pe.Shard(0).At(0, func() { query(b, a); burst(t, a, b, 5); query(b, a) })
	pe.Shard(1).At(0, func() { query(a, b); burst(t, b, a, 5); query(a, b) })
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st[0].Sent != 5 || st[1].Sent != 5 {
		t.Fatalf("sent %d a->b and %d b->a, want 5 each", st[0].Sent, st[1].Sent)
	}
}

func TestAddNodeDuplicatePanics(t *testing.T) {
	nw := New(simcore.NewEngine(1))
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	mustPanic := func(want string, add func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Errorf("panic %v, want %q", got, want)
			}
		}()
		add()
	}
	mustPanic(`netsim: duplicate node name "a"`, func() { nw.AddHost("a", MustParseAddr("10.0.0.2")) })
	mustPanic(`netsim: duplicate address 10.0.0.1`, func() { nw.AddHost("b", MustParseAddr("10.0.0.1")) })
	mustPanic(`netsim: duplicate node name "a"`, func() { nw.AddRouter("a") })
	// A recovered duplicate leaves the network as it was.
	if nw.NodeCount() != 1 || nw.Node("a") != a || nw.Node("b") != nil ||
		nw.NodeByAddr(a.Addr) != a || nw.NodeByAddr(MustParseAddr("10.0.0.2")) != nil {
		t.Fatalf("network changed by a rejected node: %d nodes", nw.NodeCount())
	}
	if b := nw.AddHost("b", MustParseAddr("10.0.0.2")); b.Index() != 1 || nw.Node("b") != b {
		t.Fatalf("node after a rejected duplicate has index %d", b.Index())
	}
}
