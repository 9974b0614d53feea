package topology

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec asserts the topology parser never panics on arbitrary
// input and that every accepted spec survives a String→ParseSpec round
// trip unchanged (the serializer is canonical: FormatSpeed/FormatBytes
// self-verify and %g floats are shortest-exact).
func FuzzParseSpec(f *testing.F) {
	f.Add("topology t\nhost a 1.0.0.1\nrouter r\nlink a r 100Mbps 25us\n")
	f.Add("link a b 622Mbps 28ms queue=512KBytes loss=0.001\n")
	f.Add("host h 10.0.0.1\nlink h h 0.125Mbps 1h queue=3Bytes loss=1\n")
	f.Add("# comment\n\ntopology x\n")
	// Committed scengen output: star-of-clusters and fat-tree families
	// at realistic scale (regenerate with internal/scengen).
	generated, err := filepath.Glob(filepath.Join("testdata", "generated", "*.topo"))
	if err != nil || len(generated) == 0 {
		f.Fatalf("no generated corpus: %v", err)
	}
	for _, path := range generated {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, text string) {
		s1, err := ParseSpecAt("<topology>", 1, strings.NewReader(text))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out := s1.String()
		s2, err := ParseSpecAt("<topology>", 1, strings.NewReader(out))
		if err != nil {
			t.Fatalf("serialized form does not reparse: %v\ninput: %q\nserialized:\n%s", err, text, out)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the spec\ninput: %q\nserialized:\n%s\nfirst:  %#v\nsecond: %#v", text, out, s1, s2)
		}
		if out2 := s2.String(); out2 != out {
			t.Fatalf("serialization not a fixed point:\n%q\nvs\n%q", out, out2)
		}
	})
}
