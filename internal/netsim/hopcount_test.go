package netsim

import (
	"testing"

	"microgrid/internal/simcore"
	"microgrid/internal/trace"
)

// TestHopRecordsMatchDirectionSent: a traced run records one "hop" per
// packet-link serialization and one "flow-hop" per flow-link
// transmission, and each direction counts the same events in Sent. The
// path a–r–b mixes a lossy packet link with a flow link, and the packet
// link goes down mid-run with packets queued and in flight, so loss,
// drops and aborts all happen; the trace and the links must still agree.
func TestHopRecordsMatchDirectionSent(t *testing.T) {
	eng := simcore.NewEngine(5)
	rec := trace.NewRecorder(1<<20, trace.CatAll)
	eng.SetRecorder(rec)
	nw := New(eng)
	a := nw.AddHost("a", MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", MustParseAddr("10.0.0.2"))
	r := nw.AddRouter("r")
	lossy := nw.Connect(a, r, LinkConfig{BandwidthBps: 10e6, Delay: simcore.Millisecond, LossProb: 0.05, QueueBytes: 16000})
	nw.Connect(r, b, LinkConfig{BandwidthBps: 100e6, Delay: 5 * simcore.Millisecond, Fidelity: FidelityFlow})
	nw.ComputeRoutes()

	a.HandleDatagrams(9, func(Addr, Port, int, any) {})
	b.HandleDatagrams(9, func(Addr, Port, int, any) {})
	ln, _ := b.Listen(80)
	got := 0
	eng.Spawn("server", func(p *simcore.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < 30; i++ {
			if _, err := c.Recv(p); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := c.Send(p, 6000, nil); err != nil {
				t.Error(err)
			}
		}
	})
	ms := func(n int) simcore.Time { return simcore.Time(n) * simcore.Time(simcore.Millisecond) }
	for _, at := range []int{0, 40, 150} {
		eng.At(ms(at), func() {
			burst(t, a, b, 20)
			burst(t, b, a, 20)
		})
	}
	eng.At(ms(42), func() { lossy.SetDown(true) })
	eng.At(ms(60), func() { lossy.SetDown(false) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("server received %d of 30 messages", got)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d records", rec.Dropped())
	}

	var hops, flowHops int64
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "hop":
			hops++
		case "flow-hop":
			flowHops++
		}
	}
	var lost int64
	for _, d := range lossy.Stats() {
		lost += d.Lost
	}
	st := nw.TotalStats()
	if hops == 0 || flowHops == 0 || lost == 0 || st.PacketsDropped == 0 || st.PacketsAborted == 0 {
		t.Fatalf("run too tame: %d hops, %d flow-hops, %d lost, %+v", hops, flowHops, lost, st)
	}
	if sent := hopsSent(nw); hops+flowHops != sent {
		t.Fatalf("trace has %d hop + %d flow-hop records, links count %d sent", hops, flowHops, sent)
	}
}
