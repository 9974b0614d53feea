package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"microgrid/internal/chaos"
	"microgrid/internal/gis"
	"microgrid/internal/simcore"
	"microgrid/internal/topology"
	"microgrid/internal/trace"
)

// The scenario text format, line-oriented like the topology and chaos
// formats it embeds:
//
//	# the paper's Fig. 10 setup, as data
//	scenario npb-validation
//	describe NPB BT on the Alpha cluster, emulated at half speed
//	seed 10
//	target procs=4 cpu=533 mem=1GBytes net=100Mbps delay=25us name="Alpha Cluster"
//	emulate procs=4 cpu=533
//	rate 0.5
//	quantum 10ms
//	workload npb bench=BT class=S
//
// A virtual grid comes from exactly one of: a target line (switched
// LAN), a target line plus a topology...end section naming rank hosts
// with a ranks line, or a gis line referencing LDIF records. Options
// are key=value; values with spaces are double-quoted. "topology" and
// "chaos" open embedded sections closed by "end", holding the
// internal/topology and internal/chaos text formats verbatim. Blank
// lines and #-comments are ignored.

// ParseError is a positioned scenario parse failure.
type ParseError struct {
	// File is the source name ("demo.scenario", "<scenario>", ...).
	File string
	// Line is the 1-based line number.
	Line int
	// Token is the offending token, when one is identifiable.
	Token string
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Token != "" {
		return fmt.Sprintf("scenario: %s:%d: %s (at %q)", e.File, e.Line, e.Msg, e.Token)
	}
	return fmt.Sprintf("scenario: %s:%d: %s", e.File, e.Line, e.Msg)
}

// Parse reads a scenario from r.
func Parse(r io.Reader) (*Scenario, error) {
	return ParseAt("<scenario>", r)
}

// ParseString parses a scenario from text.
func ParseString(text string) (*Scenario, error) {
	return Parse(strings.NewReader(text))
}

// Load parses a scenario file; errors name the file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseAt(path, f)
}

// ParseAt parses the scenario format from r, reporting errors against
// the given source name.
func ParseAt(name string, r io.Reader) (*Scenario, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	s := &Scenario{}
	lineNo := 0
	chaosLine := 0
	fail := func(token, format string, args ...any) error {
		return &ParseError{File: name, Line: lineNo, Token: token, Msg: fmt.Sprintf(format, args...)}
	}
	// section collects the raw lines of an embedded block up to "end",
	// returning the body and the line number of its first line.
	section := func(opener string) (string, int, error) {
		first := lineNo + 1
		var body strings.Builder
		for sc.Scan() {
			lineNo++
			if strings.TrimSpace(sc.Text()) == "end" {
				return body.String(), first, nil
			}
			body.WriteString(sc.Text())
			body.WriteString("\n")
		}
		return "", first, fail(opener, "unterminated %s section (missing 'end')", opener)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if s.Name == "" && fields[0] != "scenario" {
			return nil, fail(fields[0], "the first directive must be 'scenario <name>'")
		}
		switch fields[0] {
		case "scenario":
			if len(fields) != 2 {
				return nil, fail(fields[0], "want 'scenario <name>'")
			}
			if s.Name != "" {
				return nil, fail(fields[1], "duplicate scenario line")
			}
			s.Name = fields[1]
		case "describe":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "describe"))
			if rest == "" {
				return nil, fail(fields[0], "want 'describe <one line of text>'")
			}
			s.Description = rest
		case "seed":
			if len(fields) != 2 {
				return nil, fail(fields[0], "want 'seed <integer>'")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fail(fields[1], "bad seed: %v", err)
			}
			s.Seed = v
		case "target", "emulate":
			toks, err := splitTokens(line)
			if err != nil {
				return nil, fail(fields[0], "%v", err)
			}
			m, err := parseMachine(toks[1:], fail)
			if err != nil {
				return nil, err
			}
			if fields[0] == "target" {
				s.Target = m
			} else {
				s.Emulation = m
			}
		case "gis":
			toks, err := splitTokens(line)
			if err != nil {
				return nil, fail(fields[0], "%v", err)
			}
			g, err := parseGIS(toks[1:], fail)
			if err != nil {
				return nil, err
			}
			s.GIS = g
		case "rate":
			v, err := oneFloat(fields, fail)
			if err != nil {
				return nil, err
			}
			s.Rate = v
		case "quantum":
			d, err := oneDuration(fields, fail)
			if err != nil {
				return nil, err
			}
			s.Quantum = d
		case "stagger":
			v, err := oneFloat(fields, fail)
			if err != nil {
				return nil, err
			}
			s.Stagger = v
		case "flownet":
			if len(fields) != 1 {
				return nil, fail(fields[1], "flownet takes no arguments")
			}
			s.FlowNetwork = true
		case "engine":
			if len(fields) < 2 {
				return nil, fail(fields[0], "want 'engine serial' or 'engine parallel shards=N'")
			}
			switch fields[1] {
			case "serial":
				if len(fields) != 2 {
					return nil, fail(fields[2], "engine serial takes no options")
				}
				s.EngineShards = 0
			case "parallel":
				if len(fields) != 3 {
					return nil, fail(fields[1], "want 'engine parallel shards=N'")
				}
				k, v, ok := strings.Cut(fields[2], "=")
				if !ok || k != "shards" {
					return nil, fail(fields[2], "want shards=N")
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fail(fields[2], "bad shards: %v", err)
				}
				if n < 1 {
					return nil, fail(fields[2], "engine parallel needs shards >= 1")
				}
				s.EngineShards = n
			default:
				return nil, fail(fields[1], "unknown engine %q (want serial or parallel)", fields[1])
			}
		case "partition":
			if len(fields) < 2 {
				return nil, fail(fields[0], "want 'partition auto' or 'partition map <node>=<shard> ...'")
			}
			switch fields[1] {
			case "auto":
				if len(fields) != 2 {
					return nil, fail(fields[2], "partition auto takes no options")
				}
				s.Partition = &PartitionSpec{Auto: true}
			case "map":
				if len(fields) < 3 {
					return nil, fail(fields[1], "want 'partition map <node>=<shard> ...'")
				}
				assign, err := parsePins(fields[2:], fail)
				if err != nil {
					return nil, err
				}
				s.Partition = &PartitionSpec{Assign: assign}
			default:
				return nil, fail(fields[1], "unknown partition mode %q (want auto or map)", fields[1])
			}
		case "msgcost":
			if len(fields) < 2 {
				return nil, fail(fields[0], "want 'msgcost [send=<ops>] [perbyte=<ops>]'")
			}
			for _, opt := range fields[1:] {
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fail(opt, "bad option (want key=value)")
				}
				f, err := parseFloat(v)
				if err != nil {
					return nil, fail(opt, "bad %s: %v", k, err)
				}
				switch k {
				case "send":
					s.SendOverheadOps = f
				case "perbyte":
					s.PerByteOps = f
				default:
					return nil, fail(opt, "unknown msgcost option %q", k)
				}
			}
		case "topology":
			if len(fields) > 1 && fields[1] == "generate" {
				if s.TopoGen != nil {
					return nil, fail(fields[1], "duplicate 'topology generate' line")
				}
				if s.Topology != nil {
					return nil, fail(fields[1], "'topology generate' conflicts with the inline topology section above: declare the grid one way")
				}
				g, err := parseTopoGen(fields[2:], fail)
				if err != nil {
					return nil, err
				}
				s.TopoGen = g
				continue
			}
			if len(fields) != 1 {
				return nil, fail(fields[1], "the topology name goes inside the section ('topology' opens it); to generate one, use 'topology generate kind=... hosts=N seed=S'")
			}
			if s.TopoGen != nil {
				return nil, fail(fields[0], "inline topology section conflicts with the 'topology generate' line above: declare the grid one way")
			}
			body, first, err := section("topology")
			if err != nil {
				return nil, err
			}
			spec, err := topology.ParseSpecAt(name, first, strings.NewReader(body))
			if err != nil {
				return nil, err
			}
			s.Topology = spec
		case "ranks":
			if len(fields) < 2 {
				return nil, fail(fields[0], "want 'ranks <host> [host...]'")
			}
			s.HostRanks = append([]string(nil), fields[1:]...)
		case "workload":
			toks, err := splitTokens(line)
			if err != nil {
				return nil, fail(fields[0], "%v", err)
			}
			w, err := parseWorkload(toks[1:], fail)
			if err != nil {
				return nil, err
			}
			s.Workload = w
		case "retry":
			r, err := parseRetry(fields[1:], fail)
			if err != nil {
				return nil, err
			}
			s.Retry = r
		case "trace":
			t, err := parseTrace(fields[1:], fail)
			if err != nil {
				return nil, err
			}
			s.Trace = t
		case "chaos":
			if len(fields) != 1 {
				return nil, fail(fields[1], "the schedule name goes inside the section ('chaos' opens it)")
			}
			chaosLine = lineNo
			body, first, err := section("chaos")
			if err != nil {
				return nil, err
			}
			sched, err := chaos.ParseScheduleAt(name, first, strings.NewReader(body))
			if err != nil {
				return nil, err
			}
			s.Chaos = sched
		default:
			return nil, fail(fields[0], "unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %v", name, err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: %s: empty input (want 'scenario <name>')", name)
	}
	// Chaos-target errors point at the chaos section rather than the
	// whole file; Validate repeats the check for programmatic scenarios.
	if err := s.validateChaosTargets(); err != nil {
		lineNo = chaosLine
		return nil, fail("", "%v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %v", name, err)
	}
	return s, nil
}

// splitTokens splits a directive line into whitespace-separated tokens;
// a double-quoted run inside a token preserves its spaces (the quotes
// are stripped), so values like name="Alpha Cluster" stay one token.
func splitTokens(line string) ([]string, error) {
	var toks []string
	var cur strings.Builder
	inTok, inQuote := false, false
	for _, r := range line {
		switch {
		case inQuote:
			if r == '"' {
				inQuote = false
			} else {
				cur.WriteRune(r)
			}
		case r == '"':
			inQuote = true
			inTok = true
		case r == ' ' || r == '\t':
			if inTok {
				toks = append(toks, cur.String())
				cur.Reset()
				inTok = false
			}
		default:
			cur.WriteRune(r)
			inTok = true
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	if inTok {
		toks = append(toks, cur.String())
	}
	return toks, nil
}

type failFunc func(token, format string, args ...any) error

func oneFloat(fields []string, fail failFunc) (float64, error) {
	if len(fields) != 2 {
		return 0, fail(fields[0], "want '%s <number>'", fields[0])
	}
	v, err := parseFloat(fields[1])
	if err != nil {
		return 0, fail(fields[1], "bad %s: %v", fields[0], err)
	}
	return v, nil
}

func oneDuration(fields []string, fail failFunc) (simcore.Duration, error) {
	if len(fields) != 2 {
		return 0, fail(fields[0], "want '%s <duration>'", fields[0])
	}
	d, err := time.ParseDuration(fields[1])
	if err != nil {
		return 0, fail(fields[1], "bad %s: %v", fields[0], err)
	}
	return d, nil
}

func parseFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("not a finite number")
	}
	return f, nil
}

func parseMachine(opts []string, fail failFunc) (*Machine, error) {
	m := &Machine{}
	if len(opts) == 0 {
		return nil, fail("", "want options 'procs=N cpu=MIPS [mem=SIZE] [net=BW] [delay=D] [name=...]'")
	}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fail(opt, "bad option (want key=value)")
		}
		var err error
		switch k {
		case "procs":
			m.Procs, err = strconv.Atoi(v)
		case "cpu":
			m.CPUMIPS, err = parseFloat(v)
		case "mem":
			m.MemoryBytes, err = gis.ParseBytes(v)
		case "net":
			m.NetBandwidthBps, err = gis.ParseBandwidth(v)
		case "delay":
			m.NetPerSideDelay, err = time.ParseDuration(v)
		case "name":
			m.Name = v
		case "proctype":
			m.ProcType = v
		case "nettype":
			m.NetName = v
		case "compiler":
			m.Compiler = v
		default:
			return nil, fail(opt, "unknown machine option %q", k)
		}
		if err != nil {
			return nil, fail(opt, "bad %s: %v", k, err)
		}
	}
	return m, nil
}

func parseGIS(opts []string, fail failFunc) (*GISRef, error) {
	g := &GISRef{}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fail(opt, "bad option (want key=value)")
		}
		switch k {
		case "file":
			g.File = v
		case "config":
			g.Config = v
		case "phys":
			g.PhysMIPS = map[string]float64{}
			for _, entry := range strings.Split(v, ",") {
				pname, pv, ok := strings.Cut(entry, ":")
				if !ok || pname == "" {
					return nil, fail(opt, "bad phys entry %q (want name:mips)", entry)
				}
				mips, err := parseFloat(pv)
				if err != nil {
					return nil, fail(opt, "bad phys speed %q: %v", pv, err)
				}
				g.PhysMIPS[pname] = mips
			}
		default:
			return nil, fail(opt, "unknown gis option %q", k)
		}
	}
	return g, nil
}

// workloadOptions lists the per-kind options; the submission options
// (ranks, rph, sample, walltime, port) apply to every kind.
var workloadOptions = map[string]string{
	"npb":       "bench,class",
	"cactus":    "edge,steps",
	"workqueue": "units,ops,policy,chunk,resultbytes,ft,lost",
	"pingpong":  "bytes",
}

const commonWorkloadOptions = "ranks,rph,sample,walltime,port"

func parseWorkload(toks []string, fail failFunc) (*Workload, error) {
	if len(toks) == 0 {
		return nil, fail("", "want 'workload <npb|cactus|workqueue|pingpong> [options]'")
	}
	w := &Workload{Kind: toks[0]}
	allowed, ok := workloadOptions[w.Kind]
	if !ok {
		return nil, fail(toks[0], "unknown workload kind %q", w.Kind)
	}
	allowed += "," + commonWorkloadOptions
	for _, opt := range toks[1:] {
		k, v, hasVal := strings.Cut(opt, "=")
		if !optionAllowed(allowed, k) {
			return nil, fail(opt, "option %q does not apply to workload %s", k, w.Kind)
		}
		if !hasVal {
			if k != "ft" {
				return nil, fail(opt, "bad option (want key=value)")
			}
			w.FaultTolerant = true
			continue
		}
		var err error
		switch k {
		case "bench":
			w.Bench = v
		case "class":
			if len(v) != 1 {
				return nil, fail(opt, "class must be one character")
			}
			w.Class = v[0]
		case "edge":
			w.Edge, err = strconv.Atoi(v)
		case "steps":
			w.Steps, err = strconv.Atoi(v)
		case "units":
			w.Units, err = strconv.Atoi(v)
		case "ops":
			w.OpsPerUnit, err = parseFloat(v)
		case "policy":
			w.Policy = v
		case "chunk":
			w.MinChunk, err = strconv.Atoi(v)
		case "resultbytes":
			w.ResultBytes, err = strconv.Atoi(v)
		case "ft":
			return nil, fail(opt, "ft is a flag, not key=value")
		case "lost":
			w.LostTimeout, err = time.ParseDuration(v)
		case "bytes":
			w.MsgBytes, err = strconv.Atoi(v)
		case "ranks":
			w.Ranks, err = strconv.Atoi(v)
		case "rph":
			w.RanksPerHost, err = strconv.Atoi(v)
		case "sample":
			w.SamplePeriod, err = time.ParseDuration(v)
		case "walltime":
			w.MaxWallTime, err = time.ParseDuration(v)
		case "port":
			w.BasePort, err = strconv.Atoi(v)
		}
		if err != nil {
			return nil, fail(opt, "bad %s: %v", k, err)
		}
	}
	return w, nil
}

// parseTopoGen parses the one-line seeded generator form:
// 'topology generate kind=<star|fat-tree> hosts=<n> [seed=<n>]
// [clusters=<n>] [wan-fidelity=<packet|flow>]'.
func parseTopoGen(opts []string, fail failFunc) (*topology.GenSpec, error) {
	g := &topology.GenSpec{}
	if len(opts) == 0 {
		return nil, fail("generate", "want 'topology generate kind=<star|fat-tree> hosts=<n> [seed=<n>] [clusters=<n>] [wan-fidelity=<packet|flow>]'")
	}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fail(opt, "bad option (want key=value)")
		}
		var err error
		switch k {
		case "kind":
			g.Kind = v
		case "hosts":
			g.Hosts, err = strconv.Atoi(v)
		case "seed":
			g.Seed, err = strconv.ParseInt(v, 10, 64)
		case "clusters":
			g.Clusters, err = strconv.Atoi(v)
		case "wan-fidelity":
			switch v {
			case "packet":
				g.WANFlow = false
			case "flow":
				g.WANFlow = true
			default:
				return nil, fail(opt, "bad wan-fidelity %q (want packet or flow)", v)
			}
		default:
			return nil, fail(opt, "unknown topology generate option %q", k)
		}
		if err != nil {
			return nil, fail(opt, "bad %s: %v", k, err)
		}
	}
	return g, nil
}

func parseRetry(opts []string, fail failFunc) (*RetrySpec, error) {
	r := &RetrySpec{}
	if len(opts) == 0 {
		return nil, fail("", "want 'retry timeout=<d> attempts=<n> [backoff=<d>] [jitter=<d>] [portstride=<n>]'")
	}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fail(opt, "bad option (want key=value)")
		}
		var err error
		switch k {
		case "timeout":
			r.StatusTimeout, err = time.ParseDuration(v)
		case "attempts":
			r.MaxAttempts, err = strconv.Atoi(v)
		case "backoff":
			r.Backoff, err = time.ParseDuration(v)
		case "jitter":
			r.BackoffJitter, err = time.ParseDuration(v)
		case "portstride":
			r.PortStride, err = strconv.Atoi(v)
		default:
			return nil, fail(opt, "unknown retry option %q", k)
		}
		if err != nil {
			return nil, fail(opt, "bad %s: %v", k, err)
		}
	}
	return r, nil
}

// parsePins reads node=shard pins: the body of `partition map` and of
// the CLIs' -partition flag.
func parsePins(pins []string, fail failFunc) (map[string]int, error) {
	assign := make(map[string]int, len(pins))
	for _, opt := range pins {
		k, v, ok := strings.Cut(opt, "=")
		if !ok || k == "" {
			return nil, fail(opt, "bad pin (want node=shard)")
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fail(opt, "bad shard: %v", err)
		}
		if _, dup := assign[k]; dup {
			return nil, fail(opt, "node %s pinned twice", k)
		}
		assign[k] = n
	}
	return assign, nil
}

// ParsePartitionFlag parses the CLIs' -partition value: "auto", or a
// comma-separated node=shard pin list with the `partition map` syntax
// and bounds. Empty input means no partitioning (nil spec).
func ParsePartitionFlag(v string) (*PartitionSpec, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	p := &PartitionSpec{Auto: v == "auto"}
	if !p.Auto {
		pins := strings.Split(v, ",")
		for i := range pins {
			pins[i] = strings.TrimSpace(pins[i])
		}
		var err error
		p.Assign, err = parsePins(pins, func(token, format string, args ...any) error {
			return fmt.Errorf("scenario: -partition %q: %s", token, fmt.Sprintf(format, args...))
		})
		if err != nil {
			return nil, err
		}
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("scenario: -partition: %w", err)
	}
	return p, nil
}

func parseTrace(opts []string, fail failFunc) (*TraceSpec, error) {
	t := &TraceSpec{}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fail(opt, "bad option (want key=value)")
		}
		var err error
		switch k {
		case "categories":
			t.Mask, err = trace.ParseCategories(v)
		case "buf":
			if t.BufSize, err = strconv.Atoi(v); err == nil {
				err = t.Validate()
			}
		default:
			return nil, fail(opt, "unknown trace option %q", k)
		}
		if err != nil {
			return nil, fail(opt, "bad %s: %v", k, err)
		}
	}
	return t, nil
}

// optionAllowed reports whether k appears in the comma-joined allow
// list.
func optionAllowed(allowed, k string) bool {
	for _, a := range strings.Split(allowed, ",") {
		if a == k {
			return true
		}
	}
	return false
}
