package netsim

import (
	"sync"
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// A channel's "src->dst" name is built on first use (channel.label), not
// when the link is wired. These tests pin that every event naming a link
// still carries that name, and that the loss stream still derives from
// it.

// linkEvents collects, per event name, the Link attributes recorded.
type linkEvents struct {
	mu     sync.Mutex
	byName map[string]map[string]int
}

func (le *linkEvents) sink(ev trace.Event) {
	if ev.Link == "" {
		return
	}
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.byName == nil {
		le.byName = map[string]map[string]int{}
	}
	if le.byName[ev.Name] == nil {
		le.byName[ev.Name] = map[string]int{}
	}
	le.byName[ev.Name][ev.Link]++
}

// only fails unless every name event carried exactly link.
func (le *linkEvents) only(t *testing.T, name, link string) {
	t.Helper()
	got := le.byName[name]
	if got[link] == 0 || len(got) != 1 {
		t.Errorf("%s events carry links %v, want only %q", name, got, link)
	}
}

func attach(eng *simcore.Engine, le *linkEvents) {
	rec := trace.NewRecorder(0, trace.CatAll)
	rec.SetClock(func() int64 { return int64(eng.Now()) })
	rec.SetSink(le.sink)
	eng.SetRecorder(rec)
}

// burst sends n one-packet datagrams from src to dst at the current
// instant.
func burst(t *testing.T, src, dst *Node, n int) {
	for i := 0; i < n; i++ {
		if err := src.SendDatagram(dst.Addr, 9, 9, 1000, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestLinkEventNames(t *testing.T) {
	eng := simcore.NewEngine(1)
	var le linkEvents
	attach(eng, &le)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	c := nw.AddHost("c", MustParseAddr("10.0.0.2"))
	d := nw.AddHost("d", MustParseAddr("10.0.0.3"))
	r := nw.AddRouter("r")
	const loss = 0.3
	lossy := nw.Connect(a, r, LinkConfig{BandwidthBps: 1e9, Delay: simcore.Microsecond, LossProb: loss})
	// A slow, shallow queue behind a fast one overflows on a burst.
	nw.Connect(r, c, LinkConfig{BandwidthBps: 1e6, Delay: simcore.Microsecond, QueueBytes: 4000})
	nw.Connect(c, d, LinkConfig{BandwidthBps: 1e9, Delay: simcore.Millisecond, Fidelity: FidelityFlow})
	nw.ComputeRoutes()
	eng.At(0, func() {
		burst(t, a, c, 40)
		burst(t, c, d, 3)
	})
	eng.At(simcore.Time(simcore.Second), func() {
		lossy.SetDown(true)
		lossy.SetDown(false)
		lossy.Degrade(0.5, 2, -1)
		lossy.Restore()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"loss", "link-down", "link-up", "link-degrade", "link-restore"} {
		le.only(t, name, "a->r")
	}
	le.only(t, "drop", "r->c")
	le.only(t, "flow-hop", "c->d")
	if hops := le.byName["hop"]; hops["a->r"] == 0 || hops["r->c"] == 0 || len(hops) != 2 {
		t.Errorf("hop events carry links %v, want a->r and r->c", hops)
	}

	// The loss stream is still derived from the "a->r" name: replaying
	// it over the packets the direction accepted reproduces its losses.
	st := lossy.Stats()[0]
	rng := simcore.NewEngine(1).DeriveRand("netsim:loss:a->r")
	var lost int64
	for i := int64(0); i < st.Enqueued; i++ {
		if rng.Float64() < loss {
			lost++
		}
	}
	if st.Lost == 0 || st.Lost != lost {
		t.Errorf("a->r lost %d of %d packets, the a->r loss stream loses %d", st.Lost, st.Enqueued, lost)
	}
}

// TestLinkEventNamesPartitioned runs the same kind of traffic across two
// shards, both directions of the cross-shard link busy at once and a
// link failure at a global barrier: each direction's name is built by
// its own source shard only (run under -race to check).
func TestLinkEventNamesPartitioned(t *testing.T) {
	pe := simcore.NewParallelEngine(1, 2)
	var le linkEvents
	attach(pe.Shard(0), &le)
	attach(pe.Shard(1), &le)
	nw := New(pe.Shard(0))
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	l := nw.Connect(a, b, LinkConfig{BandwidthBps: 1e6, Delay: simcore.Millisecond, QueueBytes: 4000, LossProb: 0.2})
	nw.ComputeRoutes()
	nw.SetNodeEngine(b, pe.Shard(1))
	pe.Shard(0).At(0, func() { burst(t, a, b, 20) })
	pe.Shard(1).At(0, func() { burst(t, b, a, 20) })
	pe.AtGlobal(simcore.Time(simcore.Second), func() {
		l.SetDown(true)
		l.SetDown(false)
	})
	if err := pe.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hop", "loss", "drop"} {
		if got := le.byName[name]; got["a->b"] == 0 || got["b->a"] == 0 || len(got) != 2 {
			t.Errorf("%s events carry links %v, want a->b and b->a", name, got)
		}
	}
	le.only(t, "link-down", "a->b")
	le.only(t, "link-up", "a->b")
}
