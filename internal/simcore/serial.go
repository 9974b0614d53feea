package simcore

// Sim is the driver interface shared by SerialEngine and ParallelEngine:
// the minimal surface the model layer needs to execute a simulation to
// completion. Both engines guarantee bit-for-bit deterministic results
// for a given seed, independent of wall clock or GOMAXPROCS.
type Sim interface {
	// Run executes events until none remain or the simulation is stopped.
	Run() error
	// RunUntil executes events with time ≤ limit, then stops.
	RunUntil(limit Time) error
	// Stop ends the simulation after the current event completes.
	Stop()
}

// SerialEngine is the classic single-threaded discrete-event engine: one
// event queue, one dispatch loop, events executed strictly in (time, seq)
// order. It is a thin name over Engine so that code choosing between
// engines reads explicitly, and so the Sim split mirrors the
// serial/parallel pairing in the parallel engine design.
type SerialEngine struct {
	*Engine
}

// NewSerialEngine returns a serial engine with a deterministic random
// source derived from seed.
func NewSerialEngine(seed int64) *SerialEngine {
	return &SerialEngine{Engine: NewEngine(seed)}
}

var (
	_ Sim = (*SerialEngine)(nil)
	_ Sim = (*Engine)(nil)
)
