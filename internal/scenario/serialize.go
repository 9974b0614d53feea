package scenario

import (
	"fmt"
	"strings"

	"microgrid/internal/gis"
)

// String renders the scenario in the text format, canonically: parsing
// the output yields an equal Scenario (the fuzzed round-trip property).
// Zero-valued options are omitted, strings are quoted, map entries are
// sorted.
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(&b, "describe %s\n", s.Description)
	}
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	if s.Target != nil {
		s.Target.write(&b, "target")
	}
	if s.Emulation != nil {
		s.Emulation.write(&b, "emulate")
	}
	if s.GIS != nil {
		fmt.Fprintf(&b, "gis file=%s config=%s", quote(s.GIS.File), quote(s.GIS.Config))
		if len(s.GIS.PhysMIPS) > 0 {
			parts := make([]string, 0, len(s.GIS.PhysMIPS))
			for _, name := range s.GIS.physNames() {
				parts = append(parts, fmt.Sprintf("%s:%g", name, s.GIS.PhysMIPS[name]))
			}
			fmt.Fprintf(&b, " phys=%s", strings.Join(parts, ","))
		}
		b.WriteString("\n")
	}
	if s.Rate != 0 {
		fmt.Fprintf(&b, "rate %g\n", s.Rate)
	}
	if s.Quantum != 0 {
		fmt.Fprintf(&b, "quantum %s\n", s.Quantum)
	}
	if s.Stagger != 0 {
		fmt.Fprintf(&b, "stagger %g\n", s.Stagger)
	}
	if s.FlowNetwork {
		b.WriteString("flownet\n")
	}
	if s.EngineShards != 0 {
		// Canonical engine line: serial is the default and is omitted;
		// the parallel form always carries shards= in this position.
		fmt.Fprintf(&b, "engine parallel shards=%d\n", s.EngineShards)
	}
	if s.Partition != nil {
		if s.Partition.Auto {
			b.WriteString("partition auto\n")
		} else {
			b.WriteString("partition map")
			for _, name := range s.Partition.assignNames() {
				fmt.Fprintf(&b, " %s=%d", name, s.Partition.Assign[name])
			}
			b.WriteString("\n")
		}
	}
	if s.SendOverheadOps != 0 || s.PerByteOps != 0 {
		b.WriteString("msgcost")
		if s.SendOverheadOps != 0 {
			fmt.Fprintf(&b, " send=%g", s.SendOverheadOps)
		}
		if s.PerByteOps != 0 {
			fmt.Fprintf(&b, " perbyte=%g", s.PerByteOps)
		}
		b.WriteString("\n")
	}
	if s.Topology != nil {
		writeSection(&b, "topology", s.Topology.String())
	}
	if s.TopoGen != nil {
		g := s.TopoGen
		fmt.Fprintf(&b, "topology generate kind=%s hosts=%d", g.Kind, g.Hosts)
		if g.Seed != 0 {
			fmt.Fprintf(&b, " seed=%d", g.Seed)
		}
		if g.Clusters != 0 {
			fmt.Fprintf(&b, " clusters=%d", g.Clusters)
		}
		if g.WANFlow {
			b.WriteString(" wan-fidelity=flow")
		}
		b.WriteString("\n")
	}
	if len(s.HostRanks) > 0 {
		fmt.Fprintf(&b, "ranks %s\n", strings.Join(s.HostRanks, " "))
	}
	if s.Workload != nil {
		s.Workload.write(&b)
	}
	if s.Retry != nil {
		r := s.Retry
		fmt.Fprintf(&b, "retry timeout=%s attempts=%d", r.StatusTimeout, r.MaxAttempts)
		if r.Backoff != 0 {
			fmt.Fprintf(&b, " backoff=%s", r.Backoff)
		}
		if r.BackoffJitter != 0 {
			fmt.Fprintf(&b, " jitter=%s", r.BackoffJitter)
		}
		if r.PortStride != 0 {
			fmt.Fprintf(&b, " portstride=%d", r.PortStride)
		}
		b.WriteString("\n")
	}
	if s.Trace != nil {
		b.WriteString("trace")
		if s.Trace.Mask != 0 {
			fmt.Fprintf(&b, " categories=%s", s.Trace.Mask)
		}
		if s.Trace.BufSize != 0 {
			fmt.Fprintf(&b, " buf=%d", s.Trace.BufSize)
		}
		b.WriteString("\n")
	}
	if s.Chaos != nil {
		writeSection(&b, "chaos", s.Chaos.String())
	}
	return b.String()
}

// quote double-quotes a value verbatim — no escaping, because Validate
// guarantees serialized strings contain no quote or newline characters,
// and the tokenizer preserves everything else byte-for-byte.
func quote(s string) string {
	return `"` + s + `"`
}

// writeSection emits an embedded block: the opener, the body indented
// two spaces, and the closing "end".
func writeSection(b *strings.Builder, opener, body string) {
	b.WriteString(opener)
	b.WriteString("\n")
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	b.WriteString("end\n")
}

func (m *Machine) write(b *strings.Builder, directive string) {
	fmt.Fprintf(b, "%s procs=%d cpu=%g", directive, m.Procs, m.CPUMIPS)
	if m.MemoryBytes != 0 {
		fmt.Fprintf(b, " mem=%s", gis.FormatBytes(m.MemoryBytes))
	}
	if m.NetBandwidthBps != 0 {
		fmt.Fprintf(b, " net=%s", gis.FormatSpeed(m.NetBandwidthBps, 0))
	}
	if m.NetPerSideDelay != 0 {
		fmt.Fprintf(b, " delay=%s", m.NetPerSideDelay)
	}
	if m.Name != "" {
		fmt.Fprintf(b, " name=%s", quote(m.Name))
	}
	if m.ProcType != "" {
		fmt.Fprintf(b, " proctype=%s", quote(m.ProcType))
	}
	if m.NetName != "" {
		fmt.Fprintf(b, " nettype=%s", quote(m.NetName))
	}
	if m.Compiler != "" {
		fmt.Fprintf(b, " compiler=%s", quote(m.Compiler))
	}
	b.WriteString("\n")
}

func (w *Workload) write(b *strings.Builder) {
	fmt.Fprintf(b, "workload %s", w.Kind)
	switch w.Kind {
	case "npb":
		fmt.Fprintf(b, " bench=%s class=%c", w.Bench, w.Class)
	case "cactus":
		fmt.Fprintf(b, " edge=%d steps=%d", w.Edge, w.Steps)
	case "workqueue":
		fmt.Fprintf(b, " units=%d ops=%g", w.Units, w.OpsPerUnit)
		if w.Policy != "" {
			fmt.Fprintf(b, " policy=%s", w.Policy)
		}
		if w.MinChunk != 0 {
			fmt.Fprintf(b, " chunk=%d", w.MinChunk)
		}
		if w.ResultBytes != 0 {
			fmt.Fprintf(b, " resultbytes=%d", w.ResultBytes)
		}
		if w.FaultTolerant {
			b.WriteString(" ft")
		}
		if w.LostTimeout != 0 {
			fmt.Fprintf(b, " lost=%s", w.LostTimeout)
		}
	case "pingpong":
		fmt.Fprintf(b, " bytes=%d", w.MsgBytes)
	}
	if w.Ranks != 0 {
		fmt.Fprintf(b, " ranks=%d", w.Ranks)
	}
	if w.RanksPerHost != 0 {
		fmt.Fprintf(b, " rph=%d", w.RanksPerHost)
	}
	if w.SamplePeriod != 0 {
		fmt.Fprintf(b, " sample=%s", w.SamplePeriod)
	}
	if w.MaxWallTime != 0 {
		fmt.Fprintf(b, " walltime=%s", w.MaxWallTime)
	}
	if w.BasePort != 0 {
		fmt.Fprintf(b, " port=%d", w.BasePort)
	}
	b.WriteString("\n")
}
