// Package autopilot models the Autopilot performance-monitoring system the
// paper uses for internal validation (§3.6, Fig. 17): sensors attached to
// application counter variables, sampled on a fixed schedule, producing
// traces that can be compared between a physical run and a MicroGrid run
// via the root-mean-square percentage skew. Only this monitoring half of
// Autopilot is modeled; its decision procedures and actuators are not,
// since no experiment adapts through them.
//
// Sampling is scheduled in *virtual* time: the paper samples every 1 s of
// Alpha-cluster time and every 25 s of wallclock for the 4%-rate MicroGrid
// run — i.e. the same virtual cadence — so traces from the two runs align
// sample-for-sample.
package autopilot

import (
	"fmt"
	"sort"

	"microgrid/internal/metrics"
	"microgrid/internal/simcore"
	"microgrid/internal/vtime"
)

// Sensor is one monitored program variable.
type Sensor struct {
	value float64
	// Updates counts Set/Add calls, a cheap liveness indicator.
	Updates int64
}

// Set assigns the sensor value.
func (s *Sensor) Set(v float64) {
	s.value = v
	s.Updates++
}

// Value returns the current value.
func (s *Sensor) Value() float64 { return s.value }

// Sample is one recorded observation.
type Sample struct {
	// T is the virtual time of the observation.
	T simcore.Time
	// Value is the sensor value at T.
	Value float64
}

// Collector registers sensors and samples them periodically.
type Collector struct {
	eng     *simcore.Engine
	clock   *vtime.Clock
	sensors map[string]*Sensor
	traces  map[string][]Sample
	running bool
	stopped bool
}

// NewCollector creates a collector sampling on clock time.
func NewCollector(eng *simcore.Engine, clock *vtime.Clock) *Collector {
	return &Collector{
		eng:     eng,
		clock:   clock,
		sensors: make(map[string]*Sensor),
		traces:  make(map[string][]Sample),
	}
}

// Register creates (or returns) the named sensor.
func (c *Collector) Register(name string) *Sensor {
	if s, ok := c.sensors[name]; ok {
		return s
	}
	s := &Sensor{}
	c.sensors[name] = s
	return s
}

// Names returns registered sensor names, sorted.
func (c *Collector) Names() []string {
	out := make([]string, 0, len(c.sensors))
	for n := range c.sensors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Start begins sampling every period of virtual time (the paper uses 1 s).
// It may be called once.
func (c *Collector) Start(period simcore.Duration) error {
	if c.running {
		return fmt.Errorf("autopilot: collector already started")
	}
	if period <= 0 {
		return fmt.Errorf("autopilot: non-positive period %v", period)
	}
	c.running = true
	p := c.eng.Spawn("autopilot-sampler", func(p *simcore.Proc) {
		for !c.stopped {
			c.clock.SleepVirtual(p, period)
			if c.stopped {
				return
			}
			now := c.clock.Gettimeofday()
			for name, s := range c.sensors {
				c.traces[name] = append(c.traces[name], Sample{T: now, Value: s.value})
			}
		}
	})
	p.SetDaemon(true)
	return nil
}

// Stop ends sampling at the next tick.
func (c *Collector) Stop() { c.stopped = true }

// Trace returns the recorded samples for a sensor.
func (c *Collector) Trace(name string) []Sample {
	return append([]Sample(nil), c.traces[name]...)
}

// Values extracts just the sampled values.
func Values(trace []Sample) []float64 {
	out := make([]float64, len(trace))
	for i, s := range trace {
		out[i] = s.Value
	}
	return out
}

// Skew computes the paper's internal-validation metric between a
// MicroGrid trace and a physical (reference) trace: the RMS percentage
// difference at each sample time, over the common prefix. It also returns
// the number of samples compared.
func Skew(mgrid, physical []Sample) (float64, int, error) {
	n := len(mgrid)
	if len(physical) < n {
		n = len(physical)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("autopilot: empty trace")
	}
	rms, err := metrics.RMSPercentDiff(Values(mgrid[:n]), Values(physical[:n]))
	if err != nil {
		return 0, 0, err
	}
	return rms, n, nil
}
