package netsim

import (
	"fmt"
	"testing"

	"microgrid/internal/simcore"
)

// TestSharedConfigDegradeRestore degrades and restores one of four
// access links that Connect gave one shared config, with traffic open on
// every link: the siblings keep the shared pointer and their channels
// keep the original config, the shared config itself never changes, and
// Restore makes the degraded link share it again. The serial run and the
// two-shard run (hosts split across shards, faults applied at global
// barriers as chaos applies them) must agree; run under -race, the
// two-shard case also shows no shard writes the shared config.
func TestSharedConfigDegradeRestore(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		eng := simcore.NewEngine(1)
		checkSharedConfig(t, func(int) *simcore.Engine { return eng }, eng.At, eng.Run)
	})
	t.Run("shards=2", func(t *testing.T) {
		pe := simcore.NewParallelEngine(1, 2)
		checkSharedConfig(t, func(i int) *simcore.Engine { return pe.Shard(i / 2) }, pe.AtGlobal, pe.Run)
	})
}

// checkSharedConfig wires four hosts to a switch (a separately configured
// uplink on the switch too), puts host i on engineOf(i), runs the
// degrade-and-restore schedule with at, and then run.
func checkSharedConfig(t *testing.T, engineOf func(int) *simcore.Engine, at func(simcore.Time, func()), run func() error) {
	t.Helper()
	access := LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond}
	nw := New(engineOf(0))
	sw := nw.AddRouter("sw")
	var hosts []*Node
	var links []*Link
	for i := 0; i < 4; i++ {
		h := nw.AddHost(fmt.Sprintf("h%d", i), MakeAddr(10, 0, 0, byte(i+1)))
		hosts = append(hosts, h)
		links = append(links, nw.Connect(h, sw, access))
	}
	up := nw.AddHost("up", MustParseAddr("10.0.1.1"))
	uplink := nw.Connect(sw, up, LinkConfig{BandwidthBps: 1e9, Delay: simcore.Millisecond})
	nw.ComputeRoutes()
	for i, h := range hosts {
		nw.SetNodeEngine(h, engineOf(i))
	}

	shared := links[0].Config
	want := access
	want.MTU, want.QueueBytes = DefaultMTU, DefaultQueueBytes
	if *shared != want {
		t.Fatalf("shared config %+v, want the completed %+v", *shared, want)
	}
	for i, l := range links {
		if l.Config != shared {
			t.Fatalf("link %d does not share the equal config", i)
		}
	}
	if uplink.Config == shared {
		t.Fatal("a differently configured link shares the access config")
	}

	// Each host sends to the next one, opening both directions of every
	// access link, before, during and after the degrade.
	for _, start := range []simcore.Time{0, simcore.Time(150 * simcore.Millisecond), simcore.Time(300 * simcore.Millisecond)} {
		for i, h := range hosts {
			h, dst := h, hosts[(i+1)%len(hosts)]
			engineOf(i).At(start, func() { burst(t, h, dst, 5) })
		}
	}
	// siblingsUntouched checks what a degrade of links[0] must not move.
	siblingsUntouched := func(when string) {
		if *shared != want {
			t.Errorf("%s: shared config changed to %+v", when, *shared)
		}
		for i, l := range links[1:] {
			if l.Config != shared {
				t.Errorf("%s: sibling %d no longer shares the config", when, i+1)
			}
			for d, c := range l.ch {
				if c == nil {
					t.Errorf("%s: sibling %d direction %d never opened", when, i+1, d)
				} else if c.cfg != want {
					t.Errorf("%s: sibling %d direction %d runs %+v", when, i+1, d, c.cfg)
				}
			}
		}
	}
	degraded := links[0]
	at(simcore.Time(100*simcore.Millisecond), func() {
		degraded.Degrade(0.5, 2, 0.1)
		if degraded.Config == shared {
			t.Error("Degrade wrote through the shared config")
		}
		wantDeg := want
		wantDeg.BandwidthBps, wantDeg.Delay, wantDeg.LossProb = 50e6, 2*simcore.Millisecond, 0.1
		if *degraded.Config != wantDeg {
			t.Errorf("degraded config %+v, want %+v", *degraded.Config, wantDeg)
		}
		for d, c := range degraded.ch {
			if c != nil && c.cfg != wantDeg {
				t.Errorf("degraded direction %d runs %+v", d, c.cfg)
			}
		}
		siblingsUntouched("after Degrade")
	})
	at(simcore.Time(200*simcore.Millisecond), func() {
		degraded.Restore()
		if degraded.Config != shared {
			t.Error("Restore did not share the original config again")
		}
		for d, c := range degraded.ch {
			if c != nil && c.cfg != want {
				t.Errorf("restored direction %d runs %+v", d, c.cfg)
			}
		}
		siblingsUntouched("after Restore")
	})
	if err := run(); err != nil {
		t.Fatal(err)
	}
	siblingsUntouched("at the end")
	if degraded.Config != shared {
		t.Error("restored link does not share the config at the end")
	}
	if st := nw.TotalStats(); st.PacketsDelivered == 0 {
		t.Error("no traffic delivered")
	}
}

// TestEndpointsOnFirstUse: a node's transport state appears on its first
// Listen, Dial, HandleDatagrams or SendDatagram. Before that, TCP
// segments, SYNs and datagrams addressed to it are dropped at demux and
// a crash and reboot tear nothing down, all without allocating it; the
// first ephemeral port is 49152, and ports in use by a listener are
// skipped.
func TestEndpointsOnFirstUse(t *testing.T) {
	eng := simcore.NewEngine(1)
	nw, a, b := twoHosts(eng, LinkConfig{BandwidthBps: 100e6, Delay: simcore.Millisecond})
	raw := func(kind packetKind) {
		pkt := a.newPacket()
		*pkt = Packet{Src: a.Addr, Dst: b.Addr, SrcPort: 1, DstPort: 5000,
			Kind: kind, Size: HeaderBytes, FragTotal: 1, Payload: &dgramMeta{}}
		if err := a.sendPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	raw(kindData)
	raw(kindSYN)
	raw(kindDatagram)
	b.SetCrashed(true)
	b.SetCrashed(false)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nw.Stats.PacketsDelivered; got != 3 {
		t.Fatalf("delivered %d packets, want 3", got)
	}
	if a.ep != nil || b.ep != nil {
		t.Fatal("transport state allocated before any endpoint was used")
	}

	if _, err := b.Listen(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(49153); err != nil {
		t.Fatal(err)
	}
	var ports []Port
	eng.Spawn("dialer", func(p *simcore.Proc) {
		for i := 0; i < 2; i++ {
			c, err := a.Dial(p, b.Addr, 5000)
			if err != nil {
				t.Error(err)
				return
			}
			ports = append(ports, c.key.local)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 || ports[0] != 49152 || ports[1] != 49154 {
		t.Fatalf("ephemeral ports %v, want [49152 49154]", ports)
	}
}
