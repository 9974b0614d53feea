// Command mgridnet probes simulated network topologies: it loads a
// topology file (or the built-in vBNS testbed), reports routed paths, and
// runs a ping/throughput probe between two hosts. A chaos schedule can be
// replayed against the topology while the probe runs (or on its own),
// printing the resulting link-state timeline.
//
// Usage:
//
//	mgridnet -vbns -from ucsd0 -to uiuc0
//	mgridnet -topo testbed.txt -from a -to b -bytes 1048576
//	mgridnet -vbns -chaos faults.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"microgrid/internal/chaos"
	"microgrid/internal/netsim"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

func main() {
	var (
		topoFile = flag.String("topo", "", "topology file to load")
		vbns     = flag.Bool("vbns", false, "use the built-in vBNS testbed")
		wanBps   = flag.Float64("wan", topology.OC12Bps, "vBNS bottleneck link bandwidth (bps)")
		from     = flag.String("from", "", "source host")
		to       = flag.String("to", "", "destination host")
		bytes    = flag.Int("bytes", 1<<20, "transfer size for the throughput probe")
		chaosF   = flag.String("chaos", "", "chaos schedule file to replay against the topology")
		traceOut = flag.String("trace", "", "write a structured trace (.jsonl = compact stream, anything else = Chrome/Perfetto JSON)")
		traceCat = flag.String("trace-categories", "all", "trace categories, e.g. 'net,link'")
		traceBuf = flag.Int("trace-buf", 0, "trace ring-buffer capacity in events (0 = default 65536, at most 16777216)")
	)
	flag.Parse()

	eng := simcore.NewEngine(1)
	writeTrace := func() {}
	if *traceOut != "" {
		mask, err := trace.ParseCategories(*traceCat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if *traceBuf < 0 || *traceBuf > trace.MaxBufSize {
			fmt.Fprintf(os.Stderr, "error: -trace-buf %d outside 0..%d events\n", *traceBuf, trace.MaxBufSize)
			os.Exit(1)
		}
		rec := trace.NewRecorder(*traceBuf, mask)
		rec.Label = "mgridnet"
		eng.SetRecorder(rec)
		writeTrace = func() {
			write := trace.WriteChrome
			if strings.HasSuffix(*traceOut, ".jsonl") {
				write = trace.WriteJSONL
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error writing trace:", err)
				os.Exit(1)
			}
			werr := write(f, []trace.Run{rec.Snapshot()})
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "error writing trace:", werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
		}
	}
	var nw *netsim.Network
	var err error
	switch {
	case *vbns:
		nw, err = topology.BuildVBNS(eng, topology.VBNSConfig{HostsPerSite: 2, BottleneckBps: *wanBps})
	case *topoFile != "":
		// LoadSpec reports parse errors positioned as file:line.
		spec, perr := topology.LoadSpec(*topoFile)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "error:", perr)
			os.Exit(1)
		}
		nw, err = spec.Build(eng)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	fmt.Println("nodes:")
	for _, n := range nw.Nodes() {
		kind := "host"
		if n.Router {
			kind = "router"
		}
		fmt.Printf("  %-14s %-7s %s\n", n.Name, kind, n.Addr)
	}

	// Optional fault replay: armed now, fired while the engine runs (with
	// the probe, if one was requested).
	var inj *chaos.Injector
	if *chaosF != "" {
		s, err := chaos.LoadSchedule(*chaosF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		inj = chaos.NewInjector(eng, nw, nil)
		if err := inj.Arm(s); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	reportChaos := func() {
		if inj == nil {
			return
		}
		fmt.Println("\nchaos timeline:")
		fmt.Print(chaos.FormatTimeline(inj.Timeline()))
		fmt.Println("\nfinal link states:")
		for _, l := range nw.Links() {
			state := "up"
			if l.Down() {
				state = "down"
			} else if l.Degraded() {
				state = "degraded"
			}
			fmt.Printf("  %-14s -- %-14s %s\n", l.A.Name, l.B.Name, state)
		}
	}

	if *from == "" || *to == "" {
		if inj != nil {
			if err := eng.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "simulation:", err)
				os.Exit(1)
			}
			reportChaos()
			writeTrace()
		}
		return
	}
	src, dst := nw.Node(*from), nw.Node(*to)
	if src == nil || dst == nil {
		fmt.Fprintln(os.Stderr, "error: unknown -from/-to host")
		os.Exit(1)
	}
	delay, hops, ok := nw.PathDelay(src, dst)
	if !ok {
		fmt.Fprintln(os.Stderr, "error: no route")
		os.Exit(1)
	}
	bw, _ := nw.PathBottleneckBps(src, dst)
	fmt.Printf("\npath %s -> %s: %d hops, %v one-way, %.1f Mb/s bottleneck\n",
		*from, *to, hops, delay, bw/1e6)

	// Live probe: one message of -bytes over the reliable transport.
	ln, err := dst.Listen(9)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	var done simcore.Time
	eng.Spawn("server", func(p *simcore.Proc) {
		c, err := ln.Accept(p)
		if err != nil {
			return
		}
		if _, err := c.Recv(p); err == nil {
			done = p.Now()
		}
	})
	eng.Spawn("client", func(p *simcore.Proc) {
		c, err := src.Dial(p, dst.Addr, 9)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dial:", err)
			return
		}
		if err := c.Send(p, *bytes, nil); err != nil {
			fmt.Fprintln(os.Stderr, "send:", err)
		}
	})
	if err := eng.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation:", err)
		os.Exit(1)
	}
	if done == 0 {
		reportChaos() // the faults are usually why the probe died
		writeTrace()
		fmt.Fprintln(os.Stderr, "probe failed")
		os.Exit(1)
	}
	secs := done.Seconds()
	fmt.Printf("probe: %d bytes delivered in %v (%.2f Mb/s incl. handshake)\n",
		*bytes, done, float64(*bytes)*8/secs/1e6)

	fmt.Println("\nlink utilization during the probe:")
	for _, l := range nw.Links() {
		for _, d := range l.Stats() {
			if d.Sent == 0 {
				continue
			}
			fmt.Printf("  %-14s -> %-14s %6d pkts  %9d B  %5.1f%% busy\n",
				d.From, d.To, d.Sent, d.BytesSent, 100*d.Utilization)
		}
	}
	reportChaos()
	writeTrace()
}
