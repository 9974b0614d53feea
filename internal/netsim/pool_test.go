package netsim

import (
	"testing"

	"microgrid/internal/simcore"
)

// buildLine returns a network with hosts a and b joined through two
// routers, so every packet crosses three links and has its ttl
// decremented at each forwarding hop.
func buildLine(eng *simcore.Engine) (*Network, *Node, *Node) {
	nw := New(eng)
	a := nw.AddHost("a", MakeAddr(1, 0, 0, 1))
	b := nw.AddHost("b", MakeAddr(1, 0, 0, 2))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	cfg := LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond}
	nw.Connect(a, r1, cfg)
	nw.Connect(r1, r2, cfg)
	nw.Connect(r2, b, cfg)
	return nw, a, b
}

// TestPacketPoolReset delivers fragmented datagrams over a multi-hop path
// and then checks that every packet parked on the free list has been
// fully reset: a stale ttl would silently shorten routes on reuse, and a
// stale Payload/FragTotal would corrupt reassembly.
func TestPacketPoolReset(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := buildLine(eng)
	got, bytes := CountingSink(b, 7)
	// Three fragments (payload > 2×MSS) plus metadata on the last one.
	if err := a.SendDatagram(b.Addr, 9, 7, 3000, "meta"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if *got != 1 || *bytes != 3000 {
		t.Fatalf("delivery: got %d datagrams / %d bytes, want 1 / 3000", *got, *bytes)
	}
	count := 0
	for p := nw.pool.pktFree; p != nil; p = p.free {
		count++
		clean := *p
		clean.free = nil
		if clean != (Packet{}) {
			t.Errorf("pooled packet %d not fully reset: %+v", count, *p)
		}
	}
	if count == 0 {
		t.Fatal("no packets returned to the pool after delivery")
	}
}

// TestPacketPoolReuse sends many datagrams back to back so later sends
// must reuse earlier packets from the pool; every one must survive the
// full three-hop path (a stale ttl or dstIdx on a recycled packet would
// drop or misroute it).
func TestPacketPoolReuse(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := buildLine(eng)
	got, _ := CountingSink(b, 7)
	const sends = 200
	eng.Spawn("src", func(p *simcore.Proc) {
		for i := 0; i < sends; i++ {
			if err := a.SendDatagram(b.Addr, 9, 7, 1000, nil); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			p.Sleep(simcore.Millisecond)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if *got != sends {
		t.Fatalf("delivered %d of %d datagrams", *got, sends)
	}
	if st := nw.TotalStats(); st.PacketsDropped != 0 || st.PacketsLost != 0 {
		t.Fatalf("unexpected drops/losses: %+v", st)
	}
	// The pools must actually have cycled: far fewer distinct packets than
	// hops flowed.
	pooled := 0
	for p := nw.pool.pktFree; p != nil; p = p.free {
		pooled++
	}
	if pooled >= sends {
		t.Errorf("pool holds %d packets for %d sends; expected heavy reuse", pooled, sends)
	}
}
