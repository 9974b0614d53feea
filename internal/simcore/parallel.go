package simcore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"microgrid/internal/trace"
)

// DefaultLookahead is the conservative lookahead used when none was set
// with SetLookahead: cross-shard events must be scheduled at least this
// far past the current window start.
const DefaultLookahead = Millisecond

// maxTime is the practically-infinite horizon used by Run.
const maxTime = Time(1)<<62 - 1

// xevent is a cross-shard event parked in a per-(src,dst) queue until the
// barrier between windows delivers it into the destination shard.
type xevent struct {
	t   Time
	seq int64 // per-source send sequence; breaks same-instant ties
	fn  func()
}

// delivery is a due cross-shard event plus the coordinates that define
// its deterministic injection order into its destination.
type delivery struct {
	t   Time
	seq int64
	fn  func()
	src int
}

// gevent is a global barrier action: a callback that must observe and
// mutate state owned by several shards at once (link failures on
// inter-shard links, route recomputation). It runs single-threaded at
// the barrier opening the window that starts at its time, before any
// shard executes events at that time.
type gevent struct {
	t   Time
	seq int64
	fn  func()
}

// ParallelEngine is a conservative parallel discrete-event engine in the
// classic CMB (Chandy–Misra–Bryant) windowed style: the model is
// partitioned into N shards, each an independent serial Engine with its
// own event queue, process set, and random stream. Execution proceeds in
// barrier-synchronized time windows [t0, t0+lookahead): within a window
// every shard runs its local events concurrently; at the barrier,
// cross-shard events that have come due are injected into their
// destination shards in a deterministic (time, source shard, send seq)
// order before the next window opens.
//
// The conservative contract is that a cross-shard event must be
// scheduled no earlier than the end of the window in which it is sent —
// the lookahead, which the model sets with SetLookahead to the minimum
// latency of any path between shards. Under that contract no shard can
// ever receive an event in its past, so no rollback is needed and every
// shard's local execution is exactly a serial Engine run. Because each
// shard is sequential and barrier delivery is sorted, results are
// bit-for-bit deterministic for a given seed and shard count,
// independent of GOMAXPROCS or scheduling.
//
// Note that different shard counts are different simulations: shards own
// disjoint seq spaces, so observable ordering is only partition-independent
// for quantities ordered by (time, owner, per-owner order) — see the merge
// tests. A single-shard ParallelEngine is the exact serial simulation.
type ParallelEngine struct {
	shards []*Engine

	// lookhead is the effective window length, resolved at Run from the
	// SetLookahead setting (explicit) or DefaultLookahead.
	explicit Duration
	lookhead Duration

	// queues[src*n+dst] parks cross-shard events; each row is written
	// only by src's shard goroutine during a window and drained only by
	// the coordinator between windows. sendSeq[src] counts src's sends.
	queues  [][]xevent
	sendSeq []int64

	// windowEnd is the exclusive bound of the window being executed;
	// Send (called concurrently from shard goroutines) checks it to
	// enforce the lookahead contract.
	windowEnd atomic.Int64
	stopped   atomic.Bool
	running   bool
	now       Time

	// globals holds pending barrier actions (unsorted; the set is tiny —
	// chaos link events — so a linear scan beats heap bookkeeping).
	// globalSeq orders same-instant actions by scheduling order and
	// globalNow is the time of the barrier currently executing them.
	globals   []gevent
	globalSeq int64
	globalNow Time

	nwindows   int64
	ncrossSent int64
	deliverBuf []delivery
	activeBuf  []*Engine

	// The window barrier: workers[i] runs shard i's part of the window
	// on its own goroutine and panics[i] holds what that part panicked
	// with.
	wg      sync.WaitGroup
	workers []func()
	panics  []any
}

// NewParallelEngine returns a conservative parallel engine with n shards
// (n ≥ 1). Every shard derives its DeriveRand streams from seed, as a
// serial engine would, so per-entity streams are partition-independent.
func NewParallelEngine(seed int64, n int) *ParallelEngine {
	if n < 1 {
		panic(fmt.Sprintf("simcore: parallel engine needs at least 1 shard, got %d", n))
	}
	pe := &ParallelEngine{
		shards:  make([]*Engine, n),
		queues:  make([][]xevent, n*n),
		sendSeq: make([]int64, n),
		workers: make([]func(), n),
		panics:  make([]any, n),
	}
	for i := range pe.shards {
		sh := NewEngine(seed)
		sh.pe = pe
		sh.shard = i
		pe.shards[i] = sh
		pe.workers[i] = func() {
			defer pe.wg.Done()
			pe.runShard(i)
		}
	}
	return pe
}

// NumShards returns the shard count.
func (pe *ParallelEngine) NumShards() int { return len(pe.shards) }

// Shard returns shard i's serial engine. Model state partitioned onto
// shard i (hosts, schedulers, endpoints) spawns processes and schedules
// local events on it directly; only cross-shard communication goes
// through Send.
func (pe *ParallelEngine) Shard(i int) *Engine { return pe.shards[i] }

// Windows returns how many barrier-synchronized windows have executed.
func (pe *ParallelEngine) Windows() int64 { return pe.nwindows }

// CrossEvents returns how many cross-shard events have been sent.
func (pe *ParallelEngine) CrossEvents() int64 { return pe.ncrossSent }

// AtGlobal schedules fn to run single-threaded at the barrier opening
// the window that starts at time t, before any shard executes events at
// t. It is the scheduling point for actions that must atomically touch
// state spanning shards — taking an inter-shard link down, recomputing
// routes — which cannot run inside any one shard's window. Call it
// before Run starts or from within another global action; same-instant
// actions run in scheduling order. In a serial (1-shard or plain Engine)
// run the equivalent is an ordinary At.
func (pe *ParallelEngine) AtGlobal(t Time, fn func()) {
	if t < pe.globalNow {
		panic(fmt.Sprintf("simcore: AtGlobal at %v before current barrier %v", t, pe.globalNow))
	}
	pe.globalSeq++
	pe.globals = append(pe.globals, gevent{t: t, seq: pe.globalSeq, fn: fn})
}

// nextGlobalTime reports the earliest pending global action time.
func (pe *ParallelEngine) nextGlobalTime() (Time, bool) {
	var best Time
	ok := false
	for i := range pe.globals {
		if t := pe.globals[i].t; !ok || t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runGlobals executes every global action due at t0 in scheduling order,
// looping so actions scheduled by other actions at the same instant also
// run. Shard clocks have already been raised to t0, so actions observe a
// consistent global now.
func (pe *ParallelEngine) runGlobals(t0 Time) {
	pe.globalNow = t0
	for {
		var due []gevent
		keep := pe.globals[:0]
		for _, g := range pe.globals {
			if g.t == t0 {
				due = append(due, g)
			} else {
				keep = append(keep, g)
			}
		}
		for i := len(keep); i < len(pe.globals); i++ {
			pe.globals[i] = gevent{}
		}
		pe.globals = keep
		if len(due) == 0 {
			return
		}
		sort.Slice(due, func(i, j int) bool { return due[i].seq < due[j].seq })
		for i := range due {
			due[i].fn()
		}
	}
}

// SetLookahead fixes the window length: the minimum latency of any
// path between shards. It panics on d ≤ 0 — zero-lookahead couplings
// cannot be split across shards — or while the engine is running.
func (pe *ParallelEngine) SetLookahead(d Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("simcore: lookahead must be positive, got %v", d))
	}
	if pe.running {
		panic("simcore: SetLookahead while running")
	}
	pe.explicit = d
}

// Lookahead returns the effective window length: the SetLookahead
// setting if any, else DefaultLookahead.
func (pe *ParallelEngine) Lookahead() Duration {
	if pe.explicit > 0 {
		return pe.explicit
	}
	return DefaultLookahead
}

func (pe *ParallelEngine) checkShard(i int) {
	if i < 0 || i >= len(pe.shards) {
		panic(fmt.Sprintf("simcore: shard %d out of range [0,%d)", i, len(pe.shards)))
	}
}

// Send schedules fn on shard dst at absolute time t, on behalf of shard
// src. It is the only legal way to touch another shard's timeline and is
// safe to call from src's processes and event callbacks while a window
// executes. The conservative contract is enforced: t must not precede
// the end of the current window (i.e. the sender must respect the
// lookahead), otherwise Send panics — delivering into a shard's past
// would corrupt causality.
//
// Same-instant sends from one source preserve their call order; sends
// from different sources at the same instant are delivered in shard
// order. Before Run starts, Send may seed events at any t ≥ 0.
func (pe *ParallelEngine) Send(src, dst int, t Time, fn func()) {
	pe.checkShard(src)
	pe.checkShard(dst)
	if t < 0 {
		panic(fmt.Sprintf("simcore: Send at negative time %v", t))
	}
	if we := Time(pe.windowEnd.Load()); t < we {
		panic(fmt.Sprintf(
			"simcore: lookahead violation: shard %d sent to shard %d at %v inside window ending %v",
			src, dst, t, we))
	}
	pe.sendSeq[src]++
	pe.queues[src*len(pe.shards)+dst] = append(
		pe.queues[src*len(pe.shards)+dst],
		xevent{t: t, seq: pe.sendSeq[src], fn: fn},
	)
}

// nextTime reports the earliest pending time across shard event queues and
// cross-shard queues.
func (pe *ParallelEngine) nextTime() (Time, bool) {
	var best Time
	ok := false
	for _, sh := range pe.shards {
		if t, has := sh.nextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	for _, q := range pe.queues {
		for i := range q {
			if t := q[i].t; !ok || t < best {
				best, ok = t, true
			}
		}
	}
	return best, ok
}

// deliver injects every queued cross-shard event with t < end into its
// destination shard, in (time, source shard, send seq) order. It runs
// single-threaded between windows, so destination seq assignment — and
// therefore all downstream ordering — is deterministic. Each event runs
// before end, so a shard's deliveries of one window have all run when
// the next barrier injects more (see Engine.inject).
func (pe *ParallelEngine) deliver(end Time) {
	n := len(pe.shards)
	for dst := 0; dst < n; dst++ {
		due := pe.deliverBuf[:0]
		for src := 0; src < n; src++ {
			q := pe.queues[src*n+dst]
			keep := q[:0]
			for _, xe := range q {
				if xe.t < end {
					due = append(due, delivery{t: xe.t, seq: xe.seq, fn: xe.fn, src: src})
				} else {
					keep = append(keep, xe)
				}
			}
			for i := len(keep); i < len(q); i++ {
				q[i] = xevent{} // release fn references
			}
			pe.queues[src*n+dst] = keep
		}
		slices.SortFunc(due, func(a, b delivery) int {
			if c := cmp.Compare(a.t, b.t); c != 0 {
				return c
			}
			if c := cmp.Compare(a.src, b.src); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		sh := pe.shards[dst]
		for i := range due {
			sh.inject(due[i].t, due[i].fn)
			due[i] = delivery{} // release the fn reference
		}
		pe.ncrossSent += int64(len(due))
		pe.deliverBuf = due[:0]
	}
}

// runShards executes the window [*, windowEnd) on every shard that has
// work before its end. Shards run concurrently: the coordinator
// goroutine runs the first active shard itself and starts a goroutine
// for each of the others, so a window with a single active shard — a
// model living entirely on one shard — pays no goroutine or barrier
// overhead. A panic on any shard, the inline one included, is re-raised
// only after every shard has finished the window; the lowest-numbered
// shard's panic wins. The barrier allocates nothing: the WaitGroup, the
// per-shard panic slots and each shard's bound worker func live on the
// engine.
func (pe *ParallelEngine) runShards() {
	end := Time(pe.windowEnd.Load())
	active := pe.activeBuf[:0]
	for _, sh := range pe.shards {
		if t, ok := sh.nextEventTime(); ok && t < end {
			active = append(active, sh)
		}
	}
	pe.activeBuf = active[:0]
	switch len(active) {
	case 0:
		return
	case 1:
		active[0].runWindow(end)
		return
	}
	for _, sh := range active[1:] {
		pe.wg.Add(1)
		go pe.workers[sh.shard]()
	}
	pe.runShard(active[0].shard)
	pe.wg.Wait()
	for i, p := range pe.panics {
		if p != nil {
			clear(pe.panics[i:])
			panic(p)
		}
	}
}

// runShard runs shard i's part of the current window, recording a panic
// in its slot instead of unwinding the caller.
func (pe *ParallelEngine) runShard(i int) {
	defer func() {
		if r := recover(); r != nil {
			pe.panics[i] = r
		}
	}()
	pe.shards[i].runWindow(Time(pe.windowEnd.Load()))
}

// Run executes the simulation until every shard event queue and cross-shard
// queue is empty or the simulation is stopped, then shuts down remaining
// parked processes across all shards. Like the serial engine it returns
// a *DeadlockError if non-daemon processes were still blocked when the
// event supply drained.
func (pe *ParallelEngine) Run() error { return pe.RunUntil(maxTime) }

// RunUntil executes events with time ≤ limit in barrier-synchronized
// lookahead windows, then stops as Run does.
func (pe *ParallelEngine) RunUntil(limit Time) error {
	if pe.running {
		panic("simcore: ParallelEngine already running")
	}
	pe.running = true
	pe.lookhead = pe.Lookahead()
	defer func() { pe.running = false }()
	defer shutdownOnPanic(pe.shards...)

	bound := limit + 1 // window ends are exclusive: t ≤ limit ⇔ t < limit+1
	if bound <= limit {
		bound = maxTime
	}
	for !pe.stopped.Load() {
		t0, ok := pe.nextTime()
		if g, gok := pe.nextGlobalTime(); gok && (!ok || g < t0) {
			t0, ok = g, true
		}
		if !ok || t0 > limit {
			break
		}
		// Raise every shard clock to the window start so global actions
		// and cross-shard deliveries observe one consistent now, then run
		// the due barrier actions single-threaded before any shard work.
		for _, sh := range pe.shards {
			if sh.now < t0 {
				sh.now = t0
			}
		}
		pe.runGlobals(t0)
		if pe.stopped.Load() || pe.anyShardStopped() {
			break
		}
		end := t0.Add(pe.lookhead)
		if end <= t0 || end > bound {
			end = bound
		}
		// Never run shards past a pending global action: it must execute
		// at a barrier before any shard reaches its time.
		if g, gok := pe.nextGlobalTime(); gok && g < end {
			end = g
		}
		pe.windowEnd.Store(int64(end))
		pe.deliver(end)
		pe.runShards()
		pe.now = t0
		pe.nwindows++
		if pe.anyShardStopped() {
			break
		}
	}
	return pe.finish()
}

// Stop ends the simulation: the current window completes, then Run
// returns. Pending events are discarded. Safe to call from any shard's
// processes; a stop issued via a shard engine's own Stop additionally
// halts that shard's window immediately, exactly as in a serial run.
func (pe *ParallelEngine) Stop() { pe.stopped.Store(true) }

// Stopped reports whether the simulation has been stopped, either
// directly or through any shard engine.
func (pe *ParallelEngine) Stopped() bool {
	return pe.stopped.Load() || pe.anyShardStopped()
}

func (pe *ParallelEngine) anyShardStopped() bool {
	for _, sh := range pe.shards {
		if sh.stopped {
			return true
		}
	}
	return false
}

// pending reports events still scheduled anywhere: shard event queues plus
// undelivered cross-shard queues.
func (pe *ParallelEngine) pending() int {
	n := 0
	for _, sh := range pe.shards {
		n += sh.pending()
	}
	for _, q := range pe.queues {
		n += len(q)
	}
	return n
}

// finish mirrors the serial engine's end-of-run bookkeeping across all
// shards: collect still-blocked non-daemon processes (sorted by name for
// a deterministic report), shut every shard down in shard order, and
// surface a deadlock if the event supply drained with processes blocked.
func (pe *ParallelEngine) finish() error {
	// Equalize shard clocks at the global maximum first: shutdown aborts
	// blocked processes at each shard's now, and the abort timestamps must
	// not depend on which shard happened to dispatch the final event.
	final := pe.now
	for _, sh := range pe.shards {
		if sh.now > final {
			final = sh.now
		}
	}
	for _, sh := range pe.shards {
		if sh.now < final {
			sh.now = final
		}
	}
	pe.now = final
	var blocked []string
	for _, sh := range pe.shards {
		for p := range sh.procs {
			if !p.daemon {
				blocked = append(blocked, p.name)
			}
		}
	}
	sort.Strings(blocked)
	for _, sh := range pe.shards {
		sh.shutdown()
	}
	if len(blocked) > 0 && !pe.Stopped() && pe.pending() == 0 {
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// MergedTrace merges the shards' retained trace events into one
// canonical run (trace.Canonicalize order: time, then full event
// content), renumbering Seq into the canonical order. Because the order
// never consults shard identity or recorder-local sequence numbers, the
// merged run is byte-identical at any shard count as long as every
// shard's recorder retained all of its events. Shards without a recorder
// contribute nothing; the label and buffer size are taken from the first
// recorder found, emitted/dropped counters are summed.
func (pe *ParallelEngine) MergedTrace() trace.Run {
	var runs []trace.Run
	for _, sh := range pe.shards {
		r := sh.Recorder()
		if r == nil {
			continue
		}
		runs = append(runs, r.Snapshot())
	}
	return trace.MergeRuns(runs)
}
