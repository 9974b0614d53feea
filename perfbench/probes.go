package main

import (
	"fmt"
	"os"
	"time"

	"microgrid/internal/core"
	"microgrid/internal/cpusched"
	"microgrid/internal/gis"
	"microgrid/internal/mpi"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// The layer probes are fixed-iteration microbenchmarks over each layer's
// exported functions. They run in the benchmark process, once per
// per-layer invocation, and report a cost per operation.

type probeResult struct {
	name, unit string
	value      float64
}

type probe struct {
	name, unit string
	// run performs the fixed work and returns the number of operations
	// it timed and the elapsed wall time.
	run func() (ops int64, elapsed time.Duration, err error)
}

var probes = []probe{
	{"simcore.dispatch_ns", "ns", probeDispatch},
	{"simcore.switch_ns", "ns", probeSwitch},
	{"simcore.cond_wake_ns", "ns", probeCondWake},
	{"pdes.window_ns", "ns", probeWindow},
	{"cpusched.quantum_ns", "ns", probeQuantum},
	{"netsim.hop_ns", "ns", probeHop},
	{"netsim.tcp_segment_ns", "ns", probeTCPSegment},
	{"netsim.flow_transfer_ns", "ns", probeFlowTransfer},
	{"mpi.sendrecv_ns", "ns", probeSendRecv},
	{"mpi.allreduce4_ns", "ns", probeAllreduce},
	{"gis.search_ns", "ns", probeGISSearch},
	{"trace.event_ns", "ns", func() (int64, time.Duration, error) { return probeTrace(trace.CatAll) }},
	{"trace.off_ns", "ns", func() (int64, time.Duration, error) { return probeTrace(trace.CatAll &^ trace.CatNet) }},
	{"topology.generate_s", "s", probeGenerate},
}

// runProbes runs every probe; a failing probe reports 0 and a message.
func runProbes() []probeResult {
	out := make([]probeResult, 0, len(probes))
	for _, p := range probes {
		ops, el, err := p.run()
		v := 0.0
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", p.name, err)
		case p.unit == "s":
			v = el.Seconds()
		case ops > 0:
			v = float64(el.Nanoseconds()) / float64(ops)
		}
		out = append(out, probeResult{p.name, p.unit, v})
	}
	return out
}

// probeDispatch: After plus dispatch of a self-rescheduling event while
// 10⁴ other events stay pending, so every pop sifts through a deep heap.
func probeDispatch() (int64, time.Duration, error) {
	const standing, n = 10000, 1000000
	eng := simcore.NewEngine(1)
	for i := 0; i < standing; i++ {
		eng.After(3600*simcore.Second+simcore.Duration(i), func() {})
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == n {
			eng.Stop()
			return
		}
		eng.After(simcore.Duration(1+count%7)*simcore.Microsecond, tick)
	}
	eng.After(simcore.Microsecond, tick)
	start := time.Now()
	err := eng.Run()
	return n, time.Since(start), err
}

// probeSwitch: Proc.Sleep, one park and one resume per operation.
func probeSwitch() (int64, time.Duration, error) {
	const n = 200000
	eng := simcore.NewEngine(1)
	eng.Spawn("sleeper", func(p *simcore.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(simcore.Microsecond)
		}
	})
	start := time.Now()
	err := eng.Run()
	return n, time.Since(start), err
}

// probeCondWake: one Cond.Signal waking a parked process, which parks
// again while the signaler yields.
func probeCondWake() (int64, time.Duration, error) {
	const n = 200000
	eng := simcore.NewEngine(1)
	c := simcore.NewCond(eng)
	woken := 0
	w := eng.Spawn("waiter", func(p *simcore.Proc) {
		for {
			c.Wait(p)
			woken++
		}
	})
	w.SetDaemon(true)
	eng.Spawn("signaler", func(p *simcore.Proc) {
		p.Yield() // let the waiter park first
		for i := 0; i < n; i++ {
			c.Signal(nil)
			p.Yield()
		}
	})
	start := time.Now()
	err := eng.Run()
	if err == nil && woken != n {
		err = fmt.Errorf("woke %d times, want %d", woken, n)
	}
	return n, time.Since(start), err
}

// probeWindow: a 2-shard ring where each shard has one event per
// lookahead window and sends one cross-shard event, so the cost per
// window is the barrier and cross-shard delivery, not model work.
func probeWindow() (int64, time.Duration, error) {
	const ticks = 20000
	pe := simcore.NewParallelEngine(1, 2)
	pe.SetLookahead(simcore.Millisecond)
	for i := 0; i < 2; i++ {
		i := i
		eng := pe.Shard(i)
		n := 0
		var tick func()
		tick = func() {
			n++
			pe.Send(i, 1-i, eng.Now().Add(simcore.Millisecond), func() {})
			if n < ticks {
				eng.After(simcore.Millisecond, tick)
			}
		}
		eng.After(simcore.Millisecond, tick)
	}
	start := time.Now()
	err := pe.Run()
	return pe.Windows(), time.Since(start), err
}

// probeQuantum: four always-runnable tasks on one host with a 1 ms
// quantum; one operation is one scheduling quantum.
func probeQuantum() (int64, time.Duration, error) {
	const quantum, span = simcore.Millisecond, 20 * simcore.Second
	eng := simcore.NewEngine(1)
	h := cpusched.NewHost(eng, "h", 533, quantum)
	for i := 0; i < 4; i++ {
		t := h.NewTask(fmt.Sprintf("t%d", i))
		p := eng.Spawn(t.Name, func(p *simcore.Proc) {
			for {
				t.ComputeSeconds(p, 1)
			}
		})
		p.SetDaemon(true)
	}
	eng.Spawn("end", func(p *simcore.Proc) {
		p.Sleep(span)
		eng.Stop()
	})
	start := time.Now()
	err := eng.Run()
	return int64(span / quantum), time.Since(start), err
}

// probeHop: datagrams forwarded along a chain of 8 routers; one
// operation is one packet crossing one link.
func probeHop() (int64, time.Duration, error) {
	const routers, n = 8, 20000
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	src := nw.AddHost("src", netsim.MustParseAddr("10.0.0.1"))
	dst := nw.AddHost("dst", netsim.MustParseAddr("10.0.0.2"))
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, Delay: 10 * simcore.Microsecond}
	prev := src
	for i := 0; i < routers; i++ {
		r := nw.AddRouter(fmt.Sprintf("r%d", i))
		nw.Connect(prev, r, cfg)
		prev = r
	}
	nw.Connect(prev, dst, cfg)
	nw.ComputeRoutes()
	got := 0
	dst.HandleDatagrams(7, func(netsim.Addr, netsim.Port, int, any) { got++ })
	var sendErr error
	eng.Spawn("sender", func(p *simcore.Proc) {
		for i := 0; i < n; i++ {
			if err := src.SendDatagram(dst.Addr, 7, 7, 1000, nil); err != nil {
				sendErr = err
				return
			}
			// A 1000-byte packet takes 8 µs at 1 Gb/s; sending every 10 µs
			// keeps every queue empty, so each hop costs the same.
			p.Sleep(10 * simcore.Microsecond)
		}
	})
	start := time.Now()
	err := eng.Run()
	el := time.Since(start)
	if err == nil {
		err = sendErr
	}
	if err == nil && got != n {
		err = fmt.Errorf("delivered %d of %d datagrams", got, n)
	}
	return int64(n * (routers + 1)), el, err
}

// transfer sends msgs messages of size bytes over one TCP connection on
// a single link of the given fidelity, returning the network's
// delivered-packet count.
func transfer(fid netsim.Fidelity, msgs, size int) (int64, time.Duration, error) {
	eng := simcore.NewEngine(1)
	nw := netsim.New(eng)
	a := nw.AddHost("a", netsim.MustParseAddr("10.0.0.1"))
	b := nw.AddHost("b", netsim.MustParseAddr("10.0.0.2"))
	nw.Connect(a, b, netsim.LinkConfig{BandwidthBps: 100e6, Delay: 50 * simcore.Microsecond, Fidelity: fid})
	nw.ComputeRoutes()
	l, err := b.Listen(80)
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	received := 0
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			fail(err)
			return
		}
		for received < msgs {
			if _, err := c.Recv(p); err != nil {
				fail(err)
				return
			}
			received++
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := a.Dial(p, b.Addr, 80)
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := c.Send(p, size, nil); err != nil {
				fail(err)
				return
			}
		}
	})
	start := time.Now()
	err = eng.Run()
	el := time.Since(start)
	if err == nil {
		err = runErr
	}
	if err == nil && received != msgs {
		err = fmt.Errorf("received %d of %d messages", received, msgs)
	}
	return nw.TotalStats().PacketsDelivered, el, err
}

// probeTCPSegment: a bulk packet-fidelity transfer; one operation is
// one delivered packet (data segment or ACK).
func probeTCPSegment() (int64, time.Duration, error) {
	return transfer(netsim.FidelityPacket, 20, 1<<20)
}

// probeFlowTransfer: 64 KB messages over a flow-fidelity link; one
// operation is one message transfer.
func probeFlowTransfer() (int64, time.Duration, error) {
	const msgs = 20000
	_, el, err := transfer(netsim.FidelityFlow, msgs, 64<<10)
	return msgs, el, err
}

// runRanks runs fn on ranks MPI ranks sharing one virtual host (so the
// messages take the loopback path, not the LAN) and times the ranks'
// loop from rank 0's view.
func runRanks(ranks int, fn func(c *mpi.Comm) error) (time.Duration, error) {
	m, err := core.Build(core.BuildConfig{Seed: 1, Target: core.AlphaCluster.WithProcs(1)})
	if err != nil {
		return 0, err
	}
	var el time.Duration
	_, err = m.RunApp("probe", func(ctx *core.AppContext) error {
		start := time.Now()
		err := fn(ctx.Comm)
		if ctx.Comm.Rank() == 0 {
			el = time.Since(start)
		}
		return err
	}, core.RunOptions{Ranks: ranks, RanksPerHost: ranks})
	return el, err
}

// probeSendRecv: one Send/Recv round trip between two ranks.
func probeSendRecv() (int64, time.Duration, error) {
	const n = 5000
	el, err := runRanks(2, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, 1024, nil); err != nil {
					return err
				}
				if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 1, 1024, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return n, el, err
}

// probeAllreduce: one 4-rank AllreduceFloat64 of 16 values.
func probeAllreduce() (int64, time.Duration, error) {
	const n = 2000
	vals := make([]float64, 16)
	el, err := runRanks(4, func(c *mpi.Comm) error {
		for i := 0; i < n; i++ {
			if _, err := c.AllreduceFloat64(vals, mpi.Sum); err != nil {
				return err
			}
		}
		return nil
	})
	return n, el, err
}

// probeGISSearch: a subtree search with an attribute filter over a
// directory of 1000 host records.
func probeGISSearch() (int64, time.Duration, error) {
	const records, n = 1000, 2000
	s := gis.NewServer()
	base := gis.DN("o=Grid")
	if err := s.Add(gis.NewEntry(base)); err != nil {
		return 0, 0, err
	}
	for i := 0; i < records; i++ {
		e := gis.NewEntry(gis.DN(fmt.Sprintf("hn=h%d,o=Grid", i)))
		e.Set("objectclass", "GlobusHost")
		e.Set("configuration", fmt.Sprintf("c%d", i%10))
		if err := s.Add(e); err != nil {
			return 0, 0, err
		}
	}
	filter := gis.And(gis.Eq("objectclass", "GlobusHost"), gis.Eq("configuration", "c3"))
	start := time.Now()
	for i := 0; i < n; i++ {
		if got := len(s.Search(base, gis.ScopeSubtree, filter)); got != records/10 {
			return 0, 0, fmt.Errorf("search matched %d, want %d", got, records/10)
		}
	}
	return n, time.Since(start), nil
}

// probeTrace: Recorder.Event for a net event under the given mask
// (recorded with CatAll, masked off otherwise).
func probeTrace(mask trace.Category) (int64, time.Duration, error) {
	const n = 2000000
	rec := trace.NewRecorder(1<<16, mask)
	var now int64
	rec.SetClock(func() int64 { return now })
	a := trace.Attr{Host: "vm0", Link: "vm0-switch", Bytes: 1500}
	start := time.Now()
	for i := 0; i < n; i++ {
		now++
		rec.Event(trace.CatNet, "hop", a)
	}
	return n, time.Since(start), nil
}

// probeGenerate: generating the scale workload's 100k-host, 12500-campus
// star topology.
func probeGenerate() (int64, time.Duration, error) {
	start := time.Now()
	spec, err := topology.Generate(topology.GenSpec{
		Kind: topology.GenStar, Hosts: 100000, Seed: 7, Clusters: 12500, WANFlow: true,
	})
	el := time.Since(start)
	if err == nil && len(spec.Hosts) != 100000 {
		err = fmt.Errorf("generated %d hosts, want 100000", len(spec.Hosts))
	}
	return 1, el, err
}
