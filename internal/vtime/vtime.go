// Package vtime implements the MicroGrid's global-coordination model:
// per-resource simulation rates, the coherent feasible rate for a whole
// virtual grid, and the time-virtualization library that gives applications
// the illusion of running at full speed on their virtual machine.
//
// Following the paper (§2.3), the simulation rate of a resource type r is
//
//	SR_r = spec(physical resource r) / spec(virtual resources of type r mapped onto it)
//
// where specs are "higher is faster" parameters (CPU speed, bandwidth,
// reciprocal latency). A process that takes x real time on the physical
// resource takes x·SR virtual time. The paper calls the safe coherent rate
// "the maximum feasible simulation rate"; since no resource may be asked to
// progress virtual work faster than its physical capacity allows, that rate
// is the minimum of the per-resource SR values, and that is what
// MaxFeasibleRate computes. ("No resource should be allowed to work faster
// than this rate — though it can — since this would lead to incorrect
// results.")
package vtime

import (
	"fmt"

	"microgrid/internal/simcore"
)

// ResourceRate is the simulation rate contributed by one mapped resource.
type ResourceRate struct {
	// Resource names the virtual resource (host or link) for diagnostics.
	Resource string
	// Kind is the resource type, e.g. "cpu", "bandwidth", "latency".
	Kind string
	// Physical and Virtual are the "higher is faster" specifications.
	Physical float64
	Virtual  float64
}

// Rate returns Physical/Virtual: virtual seconds of this resource's work
// completed per physical second when the resource runs flat out.
func (r ResourceRate) Rate() float64 {
	if r.Virtual <= 0 {
		panic(fmt.Sprintf("vtime: non-positive virtual spec for %s/%s", r.Resource, r.Kind))
	}
	return r.Physical / r.Virtual
}

func (r ResourceRate) String() string {
	return fmt.Sprintf("%s/%s: %g/%g = %.4g", r.Resource, r.Kind, r.Physical, r.Virtual, r.Rate())
}

// MaxFeasibleRate returns the fastest coherent simulation rate for a set of
// mapped resources, with the limiting resource for diagnostics. A rate of
// 1.0 means real time; 0.04 means 1 virtual second per 25 physical seconds.
// An empty set returns (1, zero ResourceRate).
func MaxFeasibleRate(rates []ResourceRate) (float64, ResourceRate) {
	if len(rates) == 0 {
		return 1, ResourceRate{}
	}
	best := rates[0]
	min := best.Rate()
	for _, r := range rates[1:] {
		if v := r.Rate(); v < min {
			min, best = v, r
		}
	}
	return min, best
}

// Clock is the time-virtualization library: it converts between the
// engine's time (the "physical wallclock" of the emulation hosts) and the
// virtual grid's time, at a fixed simulation rate. Applications call
// Gettimeofday (the analog of the intercepted libc routine) and observe
// only virtual time.
type Clock struct {
	eng *simcore.Engine
	// rate is virtual seconds per physical second.
	rate float64
	// origin is the physical time at which virtual time 0 occurred.
	origin simcore.Time
}

// NewClock returns a virtual clock at the given simulation rate, with
// virtual time 0 anchored at the engine's current time. rate must be > 0.
func NewClock(eng *simcore.Engine, rate float64) *Clock {
	if rate <= 0 {
		panic(fmt.Sprintf("vtime: non-positive rate %g", rate))
	}
	return &Clock{eng: eng, rate: rate, origin: eng.Now()}
}

// Gettimeofday returns the current virtual time. This is the analog of the
// intercepted gettimeofday(): a program running at CPU fraction SR observes
// time passing at rate SR, giving the illusion of a full-speed machine.
func (c *Clock) Gettimeofday() simcore.Time {
	phys := c.eng.Now().Sub(c.origin)
	return simcore.Time(float64(phys)*c.rate + 0.5)
}

// ToPhysical converts a virtual duration to the physical duration needed
// for it to elapse.
func (c *Clock) ToPhysical(d simcore.Duration) simcore.Duration {
	return simcore.Duration(float64(d)/c.rate + 0.5)
}

// SleepVirtual suspends p for a span of virtual time.
func (c *Clock) SleepVirtual(p *simcore.Proc, d simcore.Duration) {
	p.Sleep(c.ToPhysical(d))
}
