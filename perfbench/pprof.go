package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to layers without leaving the standard
// library: a minimal decoder reads the fields of profile.proto that the
// attribution needs (samples, locations, functions, strings, period).

// layers are the attribution buckets: the internal/ packages a workload
// spends its time in, pdes for the parallel engine's own frames, other
// for the remaining internal packages, and runtime for samples with no
// internal frame at all (GC, scheduler, the benchmark's own code).
var layers = []string{
	"simcore", "pdes", "netsim", "cpusched", "mpi", "npb", "virtual", "vtime",
	"globus", "gis", "chaos", "trace", "core", "topology", "scenario", "other", "runtime",
}

const internalPrefix = "microgrid/internal/"

// layerOf maps a function to its layer, or "" when it belongs to no
// internal package.
func layerOf(fn, file string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "simcore" && (strings.Contains(fn, "(*ParallelEngine)") || strings.HasSuffix(file, "/parallel.go")) {
		return "pdes"
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

type profFunc struct{ name, file string }

// attributeProfile decodes a gzipped CPU profile and credits each
// sample to the first internal frame from the leaf up.
func attributeProfile(res *childResult, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64][2]int64{} // id → (name, file) string indices
		locs    = map[uint64][]uint64{} // id → function ids, innermost first
		samples [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var nf [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6:
			strs = append(strs, string(b))
		case 12:
			res.SamplePeriodNS = int64(v)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	fnLayer := map[uint64]string{}
	for id, nf := range funcs {
		fnLayer[id] = layerOf(str(nf[0]), str(nf[1]))
	}
	res.Samples = map[string]int64{}
	for _, sb := range samples {
		var stack []uint64
		var values []int64
		err := eachField(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				stack = appendVarints(stack, v, b)
			case 2:
				for _, u := range appendVarints(nil, v, b) {
					values = append(values, int64(u))
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		if len(values) == 0 {
			continue
		}
		layer := "runtime"
	walk:
		for _, loc := range stack {
			for _, fn := range locs[loc] {
				if l := fnLayer[fn]; l != "" {
					layer = l
					break walk
				}
			}
		}
		res.Samples[layer] += values[0]
		res.TotalSamples += values[0]
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint v, b nil) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n == 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
