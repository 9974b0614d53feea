package scenario

import (
	"strings"
	"testing"
)

// Two differently formatted texts describing the same scenario: extra
// whitespace, comments, reordered directives, and reordered key=value
// options must all collapse to one canonical text (String) — the property
// mgridd's result cache relies on to dedupe overlapping submissions, as
// service.CacheKey hashes that text.
const hashScenarioTidy = `scenario cache-probe
describe a tiny ping-pong for hash tests
seed 42
target procs=2 cpu=533 mem=1GBytes net=100Mbps delay=25us name="Alpha Cluster"
workload pingpong bytes=1024 ranks=2
retry timeout=2s attempts=3 backoff=100ms
`

const hashScenarioMessy = `# the same scenario, formatted by a different hand
scenario cache-probe

describe a tiny ping-pong for hash tests
seed   42

# options in a different order, directives shuffled
retry attempts=3 timeout=2s backoff=100ms
target cpu=533 delay=25us name="Alpha Cluster" procs=2 net=100Mbps mem=1GBytes
workload pingpong ranks=2 bytes=1024
`

func mustParse(t *testing.T, text string) *Scenario {
	t.Helper()
	s, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHashCollapsesFormatting: semantically identical but differently
// formatted scenario files serialize to the same canonical text.
func TestHashCollapsesFormatting(t *testing.T) {
	a := mustParse(t, hashScenarioTidy)
	b := mustParse(t, hashScenarioMessy)
	if a.String() != b.String() {
		t.Fatalf("canonical texts differ for equivalent scenarios:\ntidy:\n%s\nmessy:\n%s", a.String(), b.String())
	}
}

// TestHashStableUnderRoundTrip: parse → serialize → parse → serialize is
// a fixed point, so a scenario and its canonical text share one key.
func TestHashStableUnderRoundTrip(t *testing.T) {
	a := mustParse(t, hashScenarioTidy)
	b := mustParse(t, a.String())
	if b.String() != a.String() {
		t.Fatalf("round-trip changed the canonical text:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestHashDistinguishesContent: any semantic difference — a different
// seed, a different workload size — changes the canonical text.
func TestHashDistinguishesContent(t *testing.T) {
	base := mustParse(t, hashScenarioTidy)

	seed := mustParse(t, strings.Replace(hashScenarioTidy, "seed 42", "seed 43", 1))
	if base.String() == seed.String() {
		t.Fatal("different seeds must serialize differently")
	}

	size := mustParse(t, strings.Replace(hashScenarioTidy, "bytes=1024", "bytes=2048", 1))
	if base.String() == size.String() {
		t.Fatal("different workloads must serialize differently")
	}
}
