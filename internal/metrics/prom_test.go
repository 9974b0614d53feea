package metrics

import (
	"strings"
	"testing"
)

// TestPromCounterGauge: registration, labels, and deterministic render.
func TestPromCounterGauge(t *testing.T) {
	r := NewRegistry()
	runs := r.Counter("runs_total", "completed runs", "status")
	runs.With("ok").Add(3)
	runs.With("failed").Inc()
	depth := r.Gauge("queue_depth", "queued runs per client", "client")
	depth.With("bob").Set(2)
	depth.With("alice").Set(5)
	depth.With("bob").Set(1)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP queue_depth queued runs per client
# TYPE queue_depth gauge
queue_depth{client="alice"} 5
queue_depth{client="bob"} 1
# HELP runs_total completed runs
# TYPE runs_total counter
runs_total{status="failed"} 1
runs_total{status="ok"} 3
`
	if b.String() != want {
		t.Fatalf("render:\n%s\nwant:\n%s", b.String(), want)
	}
	if runs.With("ok").Value() != 3 {
		t.Fatalf("counter value = %g", runs.With("ok").Value())
	}
}

// TestPromHistogram: cumulative buckets, sum, count, +Inf overflow.
func TestPromHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wall_seconds", "run wall time", []float64{0.1, 1, 10})
	d := h.With()
	for _, v := range []float64{0.05, 0.5, 0.5, 2, 100} {
		d.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP wall_seconds run wall time
# TYPE wall_seconds histogram
wall_seconds_bucket{le="0.1"} 1
wall_seconds_bucket{le="1"} 3
wall_seconds_bucket{le="10"} 4
wall_seconds_bucket{le="+Inf"} 5
wall_seconds_sum 103.05
wall_seconds_count 5
`
	if b.String() != want {
		t.Fatalf("render:\n%s\nwant:\n%s", b.String(), want)
	}
	if d.Count() != 5 {
		t.Fatalf("count = %d", d.Count())
	}
}

// TestPromBoundaryLandsInBucket: a sample equal to a bound counts inside
// that bound (le semantics).
func TestPromBoundaryLandsInBucket(t *testing.T) {
	r := NewRegistry()
	d := r.Histogram("x", "", []float64{1, 2}).With()
	d.Observe(1) // exactly on the first bound
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_bucket{le="1"} 1`) {
		t.Fatalf("boundary sample missing from le=1 bucket:\n%s", b.String())
	}
}

// TestPromLabelEscaping: quotes, backslashes, and newlines in label
// values survive the exposition format.
func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "who").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{who="a\"b\\c\n"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

// TestPromReRegistrationReturnsSameFamily: registering a name twice with
// the same schema shares state; a different schema panics.
func TestPromReRegistrationReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", "k").With("v").Inc()
	r.Counter("dup_total", "", "k").With("v").Inc()
	if got := r.Counter("dup_total", "", "k").With("v").Value(); got != 2 {
		t.Fatalf("shared counter = %g, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema change did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}
