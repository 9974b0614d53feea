package topology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"microgrid/internal/gis"
	"microgrid/internal/netsim"
)

// ParseError is a positioned topology parse failure: the source name
// (file path or synthetic label), the 1-based line, and the offending
// token, so "which character of which file" is never a guess.
type ParseError struct {
	// File is the source name ("grid.topo", "<topology>", ...).
	File string
	// Line is the 1-based line number within the source.
	Line int
	// Token is the offending token, when one is identifiable.
	Token string
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Token != "" {
		return fmt.Sprintf("topology: %s:%d: %s (at %q)", e.File, e.Line, e.Msg, e.Token)
	}
	return fmt.Sprintf("topology: %s:%d: %s", e.File, e.Line, e.Msg)
}

// LoadSpec parses a topology file; errors name the file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSpecAt(path, 1, f)
}

// ParseSpecAt reads the text topology format from r:
//
//	# comment
//	topology my-testbed
//	host  ucsd0  1.11.11.1
//	router core1
//	link  ucsd0 core1 100Mbps 25us
//	link  core1 core2 622Mbps 28ms queue=512KB loss=0.001
//
// Bandwidth accepts the GIS record notation (100Mbps, 1.2Gb/s); delay
// accepts Go duration syntax (50ms, 25us). Errors are *ParseError values
// carrying the given source name, the line counted from firstLine, and
// the offending token, so an embedding format (a scenario file's
// "topology" section) surfaces errors at their true file position.
func ParseSpecAt(name string, firstLine int, r io.Reader) (*Spec, error) {
	sc := bufio.NewScanner(r)
	spec := &Spec{}
	lineNo := firstLine - 1
	fail := func(token, format string, args ...any) (*Spec, error) {
		return nil, &ParseError{File: name, Line: lineNo, Token: token, Msg: fmt.Sprintf(format, args...)}
	}
	// Node declarations by line and index, for positioned duplicate and
	// unknown-endpoint errors and for the endpoint positions Apply wires
	// by; address declarations by line; linkLines remembers where each
	// link was declared so endpoint resolution at EOF can still point at
	// a line.
	type nodeDecl struct {
		line   int
		router bool
		index  int
	}
	decl := map[string]nodeDecl{}
	addrs := map[string]int{}
	var linkLines []int
	declare := func(nodeName string, router bool, index int) (*Spec, error) {
		if prev, dup := decl[nodeName]; dup {
			return fail(nodeName, "duplicate node name %q (first declared on line %d)", nodeName, prev.line)
		}
		decl[nodeName] = nodeDecl{line: lineNo, router: router, index: index}
		return nil, nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topology":
			if len(fields) != 2 {
				return fail(fields[0], "want 'topology <name>'")
			}
			spec.Name = fields[1]
		case "host":
			if len(fields) != 3 {
				return fail(fields[0], "want 'host <name> <addr>'")
			}
			if s, err := declare(fields[1], false, len(spec.Hosts)); err != nil {
				return s, err
			}
			if prev, dup := addrs[fields[2]]; dup {
				return fail(fields[2], "duplicate host address %q (first used on line %d)", fields[2], prev)
			}
			addrs[fields[2]] = lineNo
			spec.Hosts = append(spec.Hosts, HostSpec{Name: fields[1], Addr: fields[2]})
		case "router":
			if len(fields) != 2 {
				return fail(fields[0], "want 'router <name>'")
			}
			if s, err := declare(fields[1], true, len(spec.Routers)); err != nil {
				return s, err
			}
			spec.Routers = append(spec.Routers, fields[1])
		case "link":
			if len(fields) < 5 {
				return fail(fields[0], "want 'link <a> <b> <bw> <delay> [queue=N] [loss=P] [fidelity=packet|flow]'")
			}
			bw, err := gis.ParseBandwidth(fields[3])
			if err != nil {
				return fail(fields[3], "bad bandwidth: %v", err)
			}
			if bw <= 0 {
				return fail(fields[3], "link bandwidth must be positive")
			}
			delay, err := gis.ParseLatency(fields[4])
			if err != nil {
				return fail(fields[4], "bad delay: %v", err)
			}
			if fields[1] == fields[2] {
				return fail(fields[1], "self-link %q <-> %q", fields[1], fields[2])
			}
			l := LinkSpec{A: fields[1], B: fields[2], BandwidthBps: bw, Delay: delay}
			linkLines = append(linkLines, lineNo)
			for _, opt := range fields[5:] {
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return fail(opt, "bad option (want key=value)")
				}
				switch k {
				case "queue":
					q, err := gis.ParseBytes(v)
					if err != nil {
						return fail(opt, "bad queue size: %v", err)
					}
					l.QueueBytes = int(q)
				case "loss":
					p, err := strconv.ParseFloat(v, 64)
					if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
						return fail(opt, "bad loss probability %q", v)
					}
					l.LossProb = p
				case "fidelity":
					switch v {
					case "packet":
						l.Fidelity = netsim.FidelityPacket
					case "flow":
						l.Fidelity = netsim.FidelityFlow
					default:
						return fail(opt, "bad fidelity %q (want packet or flow)", v)
					}
				default:
					return fail(opt, "unknown link option %q", k)
				}
			}
			spec.Links = append(spec.Links, l)
		default:
			return fail(fields[0], "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Links may reference nodes declared later in the file, so endpoint
	// resolution waits for EOF; linkLines keeps the errors positioned.
	for i := range spec.Links {
		l := &spec.Links[i]
		lineNo = linkLines[i]
		for e, end := range [2]string{l.A, l.B} {
			d, ok := decl[end]
			if !ok {
				return fail(end, "link endpoint %q is not a declared host or router", end)
			}
			if d.router {
				d.index += len(spec.Hosts)
			}
			l.pos[e] = int32(d.index) + 1
		}
	}
	return spec, nil
}

// String renders the spec back into the text format.
func (s *Spec) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "topology %s\n", s.Name)
	}
	for _, h := range s.Hosts {
		fmt.Fprintf(&b, "host %s %s\n", h.Name, h.Addr)
	}
	for _, r := range s.Routers {
		fmt.Fprintf(&b, "router %s\n", r)
	}
	for _, l := range s.Links {
		fmt.Fprintf(&b, "link %s %s %s %s", l.A, l.B, gis.FormatSpeed(l.BandwidthBps, 0), l.Delay)
		if l.QueueBytes != 0 {
			fmt.Fprintf(&b, " queue=%s", gis.FormatBytes(int64(l.QueueBytes)))
		}
		if l.LossProb != 0 {
			fmt.Fprintf(&b, " loss=%g", l.LossProb)
		}
		if l.Fidelity != netsim.FidelityPacket {
			fmt.Fprintf(&b, " fidelity=%s", l.Fidelity)
		}
		b.WriteString("\n")
	}
	return b.String()
}
