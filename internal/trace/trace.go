// Package trace is the MicroGrid's deterministic structured tracing
// subsystem: the queryable internal instrument the paper validates with
// Autopilot sensors (§5), generalized into typed events and spans over
// every layer of the stack (engine, processes, CPU scheduling, network,
// MPI, middleware, fault injection).
//
// All timestamps are *virtual* nanoseconds and every record carries a
// recorder-assigned sequence number, so the (time, seq) order — and
// therefore every export — is bit-for-bit deterministic for a given
// simulation seed, independent of wall clock, worker count, or host.
//
// Records land in a bounded ring buffer: when it fills, the oldest
// records are overwritten and a dropped-events counter advances. The
// counter is part of every export — truncation is never silent. Every
// record writes an 8-byte head into one ring: an engine dispatch's head
// is its time, any other head holds its category and a reference to its
// first slot in a cycle of 48-byte slots. A netsim hop writes its time,
// its duration and byte count packed into one word, its link and its
// packet kind into one slot; every other record writes its fields
// straight into two. So the two records a fully traced run is mostly
// made of cost 8 and 56 bytes whether or not they survive to export.
// Heads are allocated in fixed-length chunks the first time a record
// lands in each. Slots are allocated in chunks of the same length, and
// a slot chunk is reused once no retained record holds a slot in it, so
// slot memory follows the slots the retained records hold. A ring thus
// costs memory for what it retains rather than for its capacity, and
// never more than 104 bytes per record of capacity.
//
// Recording is gated per category by a bitmask with a strict
// zero-overhead-when-disabled fast path: a nil recorder or a masked-out
// category costs one branch at the call site and allocates nothing.
//
// The package deliberately imports nothing from the rest of the
// repository so that every layer (including the simulation engine
// itself) can emit into it.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Category classifies events; categories form a bitmask so recording can
// be enabled per subsystem.
type Category uint32

const (
	// CatEngine traces discrete-event dispatch in the simulation core.
	CatEngine Category = 1 << iota
	// CatProc traces process lifecycle: spawn, kill, abort.
	CatProc
	// CatCPU traces CPU scheduling: slices, controller quanta, load.
	CatCPU
	// CatNet traces the packet path: per-hop traversal, loss, drops.
	CatNet
	// CatLink traces link state: up/down/degrade/restore, node crashes.
	CatLink
	// CatMPI traces message passing: send, recv, barrier.
	CatMPI
	// CatGlobus traces middleware: submit, job states, retry, failover.
	CatGlobus
	// CatChaos traces fault-injection firings.
	CatChaos
	// CatLog carries free-form log records (Detail holds the message).
	CatLog

	// CatAll enables everything.
	CatAll Category = 1<<iota - 1
)

// catNames maps the single-bit categories to their wire names, in bit
// order.
var catNames = []struct {
	c    Category
	name string
}{
	{CatEngine, "engine"},
	{CatProc, "proc"},
	{CatCPU, "cpu"},
	{CatNet, "net"},
	{CatLink, "link"},
	{CatMPI, "mpi"},
	{CatGlobus, "globus"},
	{CatChaos, "chaos"},
	{CatLog, "log"},
}

// String returns the category's wire name ("cpu", "net", ...); multi-bit
// masks render as a comma-joined list.
func (c Category) String() string {
	var parts []string
	for _, cn := range catNames {
		if c&cn.c != 0 {
			parts = append(parts, cn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseCategories parses a comma-separated category list ("net,mpi",
// "all", "all,-engine" to subtract) into a mask.
func ParseCategories(s string) (Category, error) {
	var mask Category
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		neg := strings.HasPrefix(tok, "-")
		if neg {
			tok = tok[1:]
		}
		var bit Category
		if tok == "all" {
			bit = CatAll
		} else {
			for _, cn := range catNames {
				if cn.name == tok {
					bit = cn.c
					break
				}
			}
			if bit == 0 {
				return 0, fmt.Errorf("trace: unknown category %q", tok)
			}
		}
		if neg {
			mask &^= bit
		} else {
			mask |= bit
		}
	}
	return mask, nil
}

// Event is one trace record. T is virtual nanoseconds; for spans it is
// the span's start and Dur its length, for instants Dur is zero. Seq is
// the recorder-assigned emission sequence — (T, Seq) need not be sorted
// in the buffer (a span is emitted when it *ends*), but Seq alone is the
// deterministic total emission order.
type Event struct {
	T    int64
	Seq  uint64
	Cat  Category
	Name string
	// Attributes; zero values mean "not applicable". Rank and Peer are
	// only meaningful on CatMPI records (rank 0 is encoded as the zero
	// value on the wire).
	Host   string
	Link   string
	Rank   int
	Peer   int
	Bytes  int64
	Dur    int64
	Detail string
}

// Attr carries an Event's optional attributes to the emit calls. The
// ring stores Rank and Peer in 32 bits each: a value outside the int32
// range panics, naming the field.
type Attr struct {
	Host   string
	Link   string
	Rank   int
	Peer   int
	Bytes  int64
	Detail string
}

// Recorder collects events into a bounded ring buffer. It is not safe
// for concurrent use; in the MicroGrid one recorder belongs to one
// simulation engine, whose event loop is single-threaded.
type Recorder struct {
	// Label identifies this recorder's run in multi-run exports.
	Label string

	mask Category
	now  func() int64
	sink func(Event)
	// heads holds one head per record, size of them. slots holds the
	// rest of every record that is not an engine dispatch, in emission
	// order: one slot for a hop, two for any other record. It keeps
	// chunks only for the slots retained records hold, plus the one
	// being written, and never more than 2*size slots.
	heads ring
	slots slotCycle
	seq   uint64
}

// head is the part of a record every record stores, one word. A
// dispatch's head is its virtual time (a dispatch at a negative time
// takes the generic form instead). Any other head has headTagged set and
// holds the record's category in its low 32 bits, the reference of its
// first slot (see slotCycle) from bit slotShift, and headHop when the
// record is a hop, which takes one slot. Its Seq is implied by the ring
// position (the i-th oldest retained record is dropped+i+1).
type head uint64

const (
	headTagged head = 1 << 63
	headHop    head = 1 << 62
	slotShift       = 32
	// slotMask covers a slot reference, which is below 2*MaxBufSize.
	slotMask = 1<<30 - 1
)

// slot holds a record's fields beyond its head. A hop fills one:
// a is its start, b its Dur and Bytes packed as Dur<<hopBytesBits|Bytes,
// s0 its link and s1 its detail. Any other record that is not a
// dispatch fills two in a row, the second at the start of the next chunk
// in the cycle when the first ends a chunk: T, Dur, Name, Host; then
// Bytes, Rank<<32|Peer as two 32-bit halves, Link, Detail.
type slot struct {
	a      int64
	b      uint64
	s0, s1 string
}

// hopBytesBits is the width of Bytes in a hop's packed word; Dur has the
// other hopDurBits. A hop whose Dur or Bytes is negative or does not fit
// takes the generic two-slot form.
const (
	hopBytesBits = 24
	hopDurBits   = 64 - hopBytesBits
)

// event rebuilds the exported record whose head is h, with sequence
// number seq.
func (r *Recorder) event(h head, seq uint64) Event {
	if h&headTagged == 0 {
		return Event{T: int64(h), Seq: seq, Cat: CatEngine, Name: "dispatch"}
	}
	i := int(h>>slotShift) & slotMask
	s := r.slots.at(i)
	if h&headHop != 0 {
		return Event{T: s.a, Seq: seq, Cat: Category(h), Name: "hop", Link: s.s0,
			Bytes: int64(s.b & (1<<hopBytesBits - 1)), Dur: int64(s.b >> hopBytesBits), Detail: s.s1}
	}
	s2 := r.slots.after(i)
	return Event{T: s.a, Seq: seq, Cat: Category(h), Name: s.s0,
		Host: s.s1, Link: s2.s0, Rank: int(int32(s2.b >> 32)), Peer: int(int32(s2.b)),
		Bytes: s2.a, Dur: int64(s.b), Detail: s2.s1}
}

// ring is the circular array of a recorder's heads, size of them, stored
// in chunks of chunkLen (the last may be shorter). A chunk is allocated
// when the first head lands in it, so a ring costs memory only for the
// heads it has held.
type ring struct {
	chunks [][]head
	size   int
	ci     int    // index of the chunk the write cursor is in
	cur    []head // chunks[ci]
	off    int    // write cursor: the next head goes to cur[off]
}

// chunkLen is the allocation unit of heads and slots in elements (16 KB
// of heads and 96 KB of slots a chunk).
const chunkLen = 2048

func newRing(size int) ring {
	n := (size + chunkLen - 1) / chunkLen
	// The cursor starts at the end of the last chunk, so the first
	// head wraps it to chunk 0.
	return ring{chunks: make([][]head, n), size: size, ci: n - 1}
}

// nextChunk moves the write cursor to the start of the next chunk,
// wrapping after the last, and allocates the chunk on its first use; the
// last chunk is cut to fit the ring's size.
func (q *ring) nextChunk() {
	if q.ci++; q.ci == len(q.chunks) {
		q.ci = 0
	}
	if q.chunks[q.ci] == nil {
		q.chunks[q.ci] = make([]head, min(chunkLen, q.size-q.ci*chunkLen))
	}
	q.cur, q.off = q.chunks[q.ci], 0
}

// next returns the head under the write cursor, one past the last
// written (the oldest once the ring has wrapped), and advances the
// cursor.
func (q *ring) next() *head {
	if q.off == len(q.cur) {
		q.nextChunk()
	}
	q.off++
	return &q.cur[q.off-1]
}

// cursor is the index of the write cursor; it equals size when the
// cursor sits at the end of the last chunk.
func (q *ring) cursor() int { return q.ci*chunkLen + q.off }

// at returns the head at index i.
func (q *ring) at(i int) *head { return &q.chunks[i/chunkLen][i%chunkLen] }

// slotCycle holds the slots of the last keep records in a cycle of
// chunks, written in order. A slot's reference is its chunk's id (the
// chunk's position in allocation order) times chunkLen plus its offset,
// and does not change while the slot is held.
//
// When the write cursor fills a chunk it moves on to the next chunk in
// the cycle, the one written longest ago. That chunk is reused if no
// retained record holds a slot in it: its newest writer, the last
// record that wrote into it, is older than the last keep records. If it
// is still held, a fresh chunk is spliced in after the cursor's, so
// chunks follow what the retained records hold, not the capacity.
// Chunks are allocated up to 2*keep slots in all, the last cut to fit;
// from then on the cycle is reused in order like a fixed ring of 2*keep
// slots. That is safe because a retained record is followed by at most
// keep-1 records, hence by at most 2*keep-2 slot writes, and every slot
// of a full cycle is rewritten only after 2*keep writes.
type slotCycle struct {
	chunks []slotChunk // by id
	ci     int         // id of the chunk the write cursor is in
	cur    []slot      // chunks[ci].s
	off    int         // write cursor: the next slot goes to cur[off]
	writer uint64      // seq of the newest record that has taken a slot
	keep   uint64      // records retained: the recorder's size
	room   int         // slots that may still be allocated
}

// slotChunk is one chunk of a slotCycle.
type slotChunk struct {
	s []slot
	// next is the id of the chunk after this one in the cycle, and newest
	// the seq of its newest writer, set when the write cursor leaves it.
	next   int
	newest uint64
}

func newSlotCycle(keep int) slotCycle {
	return slotCycle{
		chunks: make([]slotChunk, 0, (2*keep+chunkLen-1)/chunkLen),
		keep:   uint64(keep), room: 2 * keep,
	}
}

// next returns the slot under the write cursor for record seq, and
// advances the cursor. The caller sets writer to seq once the record has
// taken its first slot.
func (q *slotCycle) next(seq uint64) *slot {
	if q.off == len(q.cur) {
		q.nextChunk(seq)
	}
	q.off++
	return &q.cur[q.off-1]
}

// nextChunk moves the write cursor from its full chunk to the start of
// the next chunk in the cycle, which record seq is about to write into,
// or to a fresh chunk spliced in before it while that one is still held.
func (q *slotCycle) nextChunk(seq uint64) {
	if len(q.chunks) > 0 {
		c := &q.chunks[q.ci]
		c.newest = q.writer
		// Record seq has overwritten the head of record seq-keep, so the
		// chunk is free when its newest writer is no later than that.
		if n := c.next; q.room == 0 || q.chunks[n].newest+q.keep <= seq {
			q.ci, q.cur, q.off = n, q.chunks[n].s, 0
			return
		}
	}
	id := len(q.chunks)
	fresh := slotChunk{s: make([]slot, min(chunkLen, q.room)), next: id}
	q.room -= len(fresh.s)
	if id > 0 {
		fresh.next, q.chunks[q.ci].next = q.chunks[q.ci].next, id
	}
	q.chunks = append(q.chunks, fresh)
	q.ci, q.cur, q.off = id, fresh.s, 0
}

// ref is the reference of the slot next last returned.
func (q *slotCycle) ref() int { return q.ci*chunkLen + q.off - 1 }

// at returns the slot with reference i.
func (q *slotCycle) at(i int) *slot { return &q.chunks[i/chunkLen].s[i%chunkLen] }

// after returns the slot written right after the one with reference i:
// the next in its chunk, or the first of the chunk after it in the cycle.
func (q *slotCycle) after(i int) *slot {
	c := &q.chunks[i/chunkLen]
	if j := i%chunkLen + 1; j < len(c.s) {
		return &c.s[j]
	}
	return &q.chunks[c.next].s[0]
}

// DefaultBufSize is the default ring capacity in events.
const DefaultBufSize = 1 << 16

// MaxBufSize is the largest ring capacity in events. Sizes arrive from
// scenario files, command-line flags and HTTP bodies, which validate
// against it. A full ring of this size holds about 1.7 GB, and its slot
// references, below 2*MaxBufSize, fit a head's 30-bit field.
const MaxBufSize = 1 << 24

// NewRecorder returns a recorder with the given ring capacity
// (DefaultBufSize if size <= 0) and initial category mask. It allocates
// only the two chunk tables; heads and slots are allocated as records
// arrive. A size above MaxBufSize panics: callers check outside input
// against it.
func NewRecorder(size int, mask Category) *Recorder {
	if size <= 0 {
		size = DefaultBufSize
	}
	if size > MaxBufSize {
		panic(fmt.Sprintf("trace: ring of %d events exceeds MaxBufSize (%d)", size, MaxBufSize))
	}
	return &Recorder{mask: mask, heads: newRing(size), slots: newSlotCycle(size)}
}

// SetClock installs the virtual-time source (the owning engine's now).
func (r *Recorder) SetClock(now func() int64) { r.now = now }

// SetSink installs fn to observe every event as it is emitted (nil
// removes it); fn receives a copy of the record just stored.
func (r *Recorder) SetSink(fn func(Event)) { r.sink = fn }

// Enabled reports whether category c is being recorded. It is nil-safe:
// call sites guard their attribute construction with it, so a simulation
// without tracing pays exactly this one branch.
func (r *Recorder) Enabled(c Category) bool {
	return r != nil && r.mask&c != 0
}

// Emitted returns how many events were emitted in total (retained plus
// dropped).
func (r *Recorder) Emitted() uint64 { return r.seq }

// Dropped returns how many events the ring has overwritten. Exports
// surface this count so truncation is never silent.
func (r *Recorder) Dropped() uint64 { return r.seq - uint64(r.retained()) }

// retained is the number of records the ring holds.
func (r *Recorder) retained() int { return int(min(r.seq, uint64(r.heads.size))) }

// Event records an instant event at the current virtual time. Masked-out
// categories return immediately.
func (r *Recorder) Event(cat Category, name string, a Attr) {
	if r == nil || r.mask&cat == 0 {
		return
	}
	var t int64
	if r.now != nil {
		t = r.now()
	}
	r.record(t, 0, cat, name, &a)
}

// Dispatch records the engine's dispatch of an event at virtual time t:
// the record Event(CatEngine, "dispatch", Attr{}) makes at that time,
// stored as a head alone.
func (r *Recorder) Dispatch(t int64) {
	if r == nil || r.mask&CatEngine == 0 {
		return
	}
	if t < 0 {
		// Its head would read as a tagged one.
		r.record(t, 0, CatEngine, "dispatch", &Attr{})
		return
	}
	r.seq++
	h := r.heads.next()
	*h = head(t)
	if r.sink != nil {
		r.sink(r.event(*h, r.seq))
	}
}

// Span records a completed span starting at virtual time start (ns) and
// lasting dur. Spans are emitted when they end, so their Seq reflects
// completion order while T is the start.
func (r *Recorder) Span(cat Category, name string, start, dur int64, a Attr) {
	if r == nil || r.mask&cat == 0 {
		return
	}
	r.record(start, dur, cat, name, &a)
}

// Hop records netsim's per-hop span: the record Span(CatNet, "hop",
// start, dur, Attr{Link: link, Bytes: bytes, Detail: detail}) makes,
// stored in one slot.
func (r *Recorder) Hop(start, dur, bytes int64, link, detail string) {
	if r == nil || r.mask&CatNet == 0 {
		return
	}
	if uint64(dur) >= 1<<hopDurBits || uint64(bytes) >= 1<<hopBytesBits {
		r.record(start, dur, CatNet, "hop", &Attr{Link: link, Bytes: bytes, Detail: detail})
		return
	}
	r.seq++
	h, s := r.heads.next(), r.slots.next(r.seq)
	r.slots.writer = r.seq
	*h = headTagged | headHop | head(r.slots.ref())<<slotShift | head(CatNet)
	s.a, s.b, s.s0, s.s1 = start, uint64(dur)<<hopBytesBits|uint64(bytes), link, detail
	if r.sink != nil {
		r.sink(r.event(*h, r.seq))
	}
}

// record assigns the next sequence number and writes the record's head
// and its fields straight into the next head and the next two slots,
// which overwrite the oldest once the ring is full.
func (r *Recorder) record(t, dur int64, cat Category, name string, a *Attr) {
	if int(int32(a.Rank)) != a.Rank {
		panic(fmt.Sprintf("trace: Attr.Rank %d does not fit in 32 bits", a.Rank))
	}
	if int(int32(a.Peer)) != a.Peer {
		panic(fmt.Sprintf("trace: Attr.Peer %d does not fit in 32 bits", a.Peer))
	}
	r.seq++
	h, s := r.heads.next(), r.slots.next(r.seq)
	r.slots.writer = r.seq
	*h = headTagged | head(r.slots.ref())<<slotShift | head(cat)
	s.a, s.b, s.s0, s.s1 = t, uint64(dur), name, a.Host
	s = r.slots.next(r.seq)
	s.a, s.b, s.s0, s.s1 = a.Bytes, uint64(uint32(a.Rank))<<32|uint64(uint32(a.Peer)), a.Link, a.Detail
	if r.sink != nil {
		r.sink(r.event(*h, r.seq))
	}
}

// Events returns the retained events in emission order (oldest first).
func (r *Recorder) Events() []Event {
	out := make([]Event, r.retained())
	dropped := r.seq - uint64(len(out))
	// The oldest record's head is at index 0 until the ring first fills,
	// and under the write cursor from then on.
	i := 0
	if dropped > 0 {
		i = r.heads.cursor()
	}
	for k := range out {
		if i == r.heads.size {
			i = 0
		}
		out[k] = r.event(*r.heads.at(i), dropped+uint64(k)+1)
		i++
	}
	return out
}

// Run is one recorder's snapshot for export and analysis.
type Run struct {
	Label   string
	BufSize int
	Emitted uint64
	Dropped uint64
	Events  []Event
}

// Snapshot captures the recorder's current contents.
func (r *Recorder) Snapshot() Run {
	return Run{
		Label:   r.Label,
		BufSize: r.heads.size,
		Emitted: r.seq,
		Dropped: r.Dropped(),
		Events:  r.Events(),
	}
}

// Canonicalize returns r with its events in the partition-independent
// canonical order: sorted by start time, ties broken by full content
// (category, name, attributes, size, duration, detail), and Seq
// renumbered in that order. The tiebreak never consults recorder-local
// sequence numbers, and events with fully identical content are
// interchangeable, so one serial recorder and N per-shard recorders that
// observed the same model produce byte-identical canonical runs. Exports
// that must be stable under re-partitioning (MergedTrace, the campaign
// trace JSONL) run every snapshot through this.
func Canonicalize(r Run) Run {
	evs := append([]Event(nil), r.Events...)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		switch {
		case a.T != b.T:
			return a.T < b.T
		case a.Cat != b.Cat:
			return a.Cat < b.Cat
		case a.Name != b.Name:
			return a.Name < b.Name
		case a.Host != b.Host:
			return a.Host < b.Host
		case a.Link != b.Link:
			return a.Link < b.Link
		case a.Rank != b.Rank:
			return a.Rank < b.Rank
		case a.Peer != b.Peer:
			return a.Peer < b.Peer
		case a.Bytes != b.Bytes:
			return a.Bytes < b.Bytes
		case a.Dur != b.Dur:
			return a.Dur < b.Dur
		default:
			return a.Detail < b.Detail
		}
	})
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	r.Events = evs
	return r
}

// MergeRuns combines per-shard snapshots of one logical run into a single
// canonical Run: label and buffer size come from the first snapshot,
// emitted/dropped counters are summed, and the event union is
// canonicalized.
func MergeRuns(runs []Run) Run {
	var out Run
	for i, r := range runs {
		if i == 0 {
			out.Label = r.Label
			out.BufSize = r.BufSize
		}
		out.Emitted += r.Emitted
		out.Dropped += r.Dropped
		out.Events = append(out.Events, r.Events...)
	}
	return Canonicalize(out)
}

// SortByTime orders events by (T, Seq) — the deterministic total order
// analyses use (spans are buffered in completion order, not start order).
func SortByTime(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].T != events[j].T {
			return events[i].T < events[j].T
		}
		return events[i].Seq < events[j].Seq
	})
}
