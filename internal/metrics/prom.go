package metrics

// Prometheus-style service metrics. The statistics half of this package
// serves the paper's validation figures; this half serves the running
// system: mgridd exposes its runs, cache, queue, and worker pool as
// counter/gauge/histogram families in the Prometheus text exposition
// format ("Measuring and Monitoring Grid Resource Utilisation" is the
// reference for what a grid service should measure). The implementation
// is deliberately small — no external client library — and its output is
// deterministic: families render sorted by name, series sorted by label
// values, so two scrapes of identical state are byte-identical.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them for scraping. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series // key: canonical label-value join
}

// series is one label combination's state.
type series struct {
	labelValues []string

	mu    sync.Mutex
	value float64   // counter/gauge
	count uint64    // histogram observations
	sum   float64   // histogram sum
	cumul []float64 // histogram per-bucket counts (non-cumulative internally)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if name == "" || strings.ContainsAny(name, " \t\n{}\"") {
		panic("metrics: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("metrics: re-registered " + name + " with a different schema")
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// Histogram registers (or returns) a histogram family with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("metrics: histogram buckets must ascend")
		}
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// with finds or creates the series for the given label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			s.cumul = make([]float64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// CounterVec is a counter family; With selects one series.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family; With selects one series.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family; With selects one series.
type HistogramVec struct{ f *family }

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Gauge is a settable series.
type Gauge struct{ s *series }

// Distribution is one histogram series (cumulative-bucket exposition).
type Distribution struct {
	s       *series
	buckets []float64
}

// With selects the series for the given label values (in schema order).
func (v *CounterVec) With(values ...string) Counter { return Counter{v.f.with(values)} }

// With selects the series for the given label values (in schema order).
func (v *GaugeVec) With(values ...string) Gauge { return Gauge{v.f.with(values)} }

// With selects the series for the given label values (in schema order).
func (v *HistogramVec) With(values ...string) Distribution {
	return Distribution{v.f.with(values), v.f.buckets}
}

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add increases the counter by d (negative deltas panic: counters are
// monotone by contract).
func (c Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decrease")
	}
	c.s.mu.Lock()
	c.s.value += d
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// Set stores v.
func (g Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Observe records one sample.
func (d Distribution) Observe(v float64) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	d.s.count++
	d.s.sum += v
	i := sort.SearchFloat64s(d.buckets, v) // first bound >= v
	d.s.cumul[i]++
}

// Count returns how many samples were observed.
func (d Distribution) Count() uint64 {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.s.count
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for the given schema and values, with
// extra appended last (the histogram "le" label).
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	parts := make([]string, 0, len(names)+len(extra)/2)
	for i, n := range names {
		parts = append(parts, n+`="`+escapeLabel(values[i])+`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escapeLabel(extra[i+1])+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value (integral floats without exponent).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm renders every family in the Prometheus text exposition
// format, deterministically: families sorted by name, series sorted by
// label values.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, f.series[k])
	}
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
		return err
	}
	for _, s := range ordered {
		s.mu.Lock()
		switch f.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues), formatValue(s.value))
		case kindHistogram:
			cum := 0.0
			for i, bound := range f.buckets {
				cum += s.cumul[i]
				fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
					labelString(f.labels, s.labelValues, "le", formatValue(bound)), formatValue(cum))
			}
			cum += s.cumul[len(f.buckets)]
			fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "le", "+Inf"), formatValue(cum))
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues), formatValue(s.sum))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues), s.count)
		}
		s.mu.Unlock()
	}
	return nil
}
