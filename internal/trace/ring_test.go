package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"
)

// TestRingMatchesReference drives a Recorder and a naive reference side
// by side on seeded random schedules. The reference appends every
// unmasked record to a slice and keeps the last N, so any slip in the
// ring's head or slot choice, wrap, sequence numbering, field packing or
// field copy shows up as a diff in Events, Snapshot, the counters or the
// sink's stream. Records go through Dispatch (a head alone), Hop (one
// slot, or two when its Dur or Bytes does not pack), Event and Span (two
// slots), so the slot cycle runs behind the head ring by a varying
// amount and a two-slot record's halves land in two chunks. The sizes
// around chunkLen put the wrap on, before and after a chunk edge; 1023
// to 1025 and 3077 put it inside a chunk, near its middle.
//
// The bursts cases draw the same records in runs instead: long runs of
// dispatches, which drop every slot and free the chunks, between bursts
// of hops, two-slot records or both, which reuse them and splice fresh
// chunks into the cycle. The straddle case writes a two-slot record
// across a chunk edge at a splice into the middle of the cycle.
// Throughout, the slot cycle must stay within checkSlotBound, so a ring
// whose 2*size slots fit in one chunk never holds more than those.
func TestRingMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 1000, 1023, 1024, 1025, 3077,
		chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				checkRingAgainstReference(t, size, seed, false)
			})
		}
	}
	for _, size := range []int{1, 2, 3, 5, 1000, chunkLen/2 + 1, chunkLen - 1, chunkLen + 1, 2*chunkLen + 3} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("bursts/size=%d/seed=%d", size, seed), func(t *testing.T) {
				checkRingAgainstReference(t, size, seed, true)
			})
		}
	}
	t.Run("straddle-at-splice", checkStraddleAtSplice)
}

// checkStraddleAtSplice builds a cycle of chunks 0 and 1, frees chunk 0
// with a run of dispatches while chunk 1 is still held, and refills
// chunk 0 so that an event's first slot is its last. Its second slot
// then goes to the first of a fresh chunk 2, spliced in between 0 and 1,
// and the event must read back whole until it is dropped.
func checkStraddleAtSplice(t *testing.T) {
	const size = 2 * chunkLen
	r := NewRecorder(size, CatAll)
	var all []Event
	hop := func() {
		k := int64(len(all))
		r.Hop(k, k+1, 1500, fmt.Sprint("l", k), fmt.Sprint("d", k))
		all = append(all, Event{T: k, Seq: uint64(len(all) + 1), Cat: CatNet, Name: "hop",
			Link: fmt.Sprint("l", k), Bytes: 1500, Dur: k + 1, Detail: fmt.Sprint("d", k)})
	}
	dispatch := func() {
		k := int64(len(all))
		r.Dispatch(k)
		all = append(all, Event{T: k, Seq: uint64(len(all) + 1), Cat: CatEngine, Name: "dispatch"})
	}
	event := func() {
		k := len(all)
		a := Attr{Host: fmt.Sprint("h", k), Link: fmt.Sprint("l", k), Rank: k, Peer: -k, Bytes: int64(k), Detail: fmt.Sprint("d", k)}
		r.Span(CatMPI, fmt.Sprint("n", k), int64(k), int64(k+1), a)
		all = append(all, Event{T: int64(k), Seq: uint64(k + 1), Cat: CatMPI, Name: fmt.Sprint("n", k),
			Host: a.Host, Link: a.Link, Rank: k, Peer: -k, Bytes: int64(k), Dur: int64(k + 1), Detail: a.Detail})
	}
	check := func(when string) {
		t.Helper()
		if got, kept := r.Events(), all[max(0, len(all)-size):]; !reflect.DeepEqual(got, kept) {
			t.Fatalf("%s: Events() differs from the last %d records:\ngot  %+v\nwant %+v", when, size, got, kept)
		}
	}
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	// Records 1..4096 are hops, filling chunks 0 and 1. Records
	// 4097..6144 are dispatches, dropping the hops in chunk 0.
	repeat(2*chunkLen, hop)
	repeat(chunkLen, dispatch)
	// A hop reuses chunk 0, and events fill it up to its last slot.
	hop()
	repeat(chunkLen/2-1, event)
	if r.slots.ci != 0 || r.slots.off != chunkLen-1 || len(r.slots.chunks) != 2 {
		t.Fatalf("slot cursor at chunk %d offset %d of %d chunks, want chunk 0 offset %d of 2",
			r.slots.ci, r.slots.off, len(r.slots.chunks), chunkLen-1)
	}
	event()
	straddler := all[len(all)-1]
	if c := r.slots.chunks; len(c) != 3 || c[0].next != 2 || c[2].next != 1 || c[1].next != 0 || r.slots.ci != 2 || r.slots.off != 1 {
		t.Fatalf("the straddling event left chunk cursor %d offset %d; want a cycle 0, 2, 1 with the cursor at chunk 2 offset 1", r.slots.ci, r.slots.off)
	}
	check("after the straddling event")
	// Hops refill chunk 2 and go on into chunk 1 once its hops are
	// dropped, while the straddling event is still retained.
	repeat(chunkLen, hop)
	check("after the next chunk of hops")
	repeat(size-chunkLen-1, dispatch)
	check("with the straddling event the oldest record")
	if got := r.Events()[0]; got != straddler {
		t.Fatalf("oldest record %+v, want the straddling event %+v", got, straddler)
	}
	dispatch()
	check("after the straddling event was dropped")
}

// extremes are the values a record's integer fields take besides ones
// derived from the record's index.
var extremes = []int64{0, -1, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64,
	1<<hopBytesBits - 1, 1 << hopBytesBits, 1<<hopDurBits - 1, 1 << hopDurBits}

// pick returns v or, one time in four, one of extremes that fits in
// [lo, hi].
func pick(rng *rand.Rand, v, lo, hi int64) int64 {
	if rng.Intn(4) == 0 {
		if x := extremes[rng.Intn(len(extremes))]; x >= lo && x <= hi {
			return x
		}
	}
	return v
}

// checkRingAgainstReference runs one schedule, in runs when bursts is
// set.
func checkRingAgainstReference(t *testing.T, size int, seed int64, bursts bool) {
	rng := rand.New(rand.NewSource(seed))
	cats := []Category{CatEngine, CatProc, CatCPU, CatNet, CatMPI, CatLog,
		CatNet | CatMPI, CatAll, CatLog | 1<<31}
	r := NewRecorder(size, CatAll|1<<31)
	var now int64
	r.SetClock(func() int64 { return now })

	var all, sunk, wantSunk []Event // every stored record; sink stream
	w := newRetention(size)
	n := 3*size + rng.Intn(4*size+50)
	if bursts {
		n += 4 * chunkLen
	}
	maskAt, sinkAt := rng.Intn(n), rng.Intn(n)
	// The current run: its kinds (0 dispatches, 1 hops, 2 two-slot
	// records, 3 any slot record) and how many records it has left.
	run, left := 0, 0
	for k := 0; k < n; k++ {
		if k == maskAt {
			r.mask &^= CatNet | CatCPU
		}
		if k == maskAt+size {
			r.mask |= CatNet
		}
		if k == sinkAt {
			r.SetSink(func(ev Event) { sunk = append(sunk, ev) })
		}
		now += int64(rng.Intn(3))
		// Every field gets a value derived from k, so a field copied
		// from the wrong record or left stale in a reused slot differs;
		// a quarter of the integers are extremes instead. A quarter of
		// the records carry no attributes.
		cat := cats[rng.Intn(len(cats))]
		name := fmt.Sprintf("n%d", k)
		var a Attr
		if rng.Intn(4) != 0 {
			a = Attr{
				Host: fmt.Sprintf("h%d", k), Link: fmt.Sprintf("l%d", k),
				Rank:   int(pick(rng, int64(k+1), math.MinInt32, math.MaxInt32)),
				Peer:   int(pick(rng, int64(k+2), math.MinInt32, math.MaxInt32)),
				Bytes:  pick(rng, int64(k+3), math.MinInt64, math.MaxInt64),
				Detail: fmt.Sprintf("d%d", k),
			}
		}
		want := Event{Cat: cat, Name: name, Host: a.Host, Link: a.Link,
			Rank: a.Rank, Peer: a.Peer, Bytes: a.Bytes, Detail: a.Detail}
		kind := rng.Intn(4)
		if bursts {
			if left == 0 {
				if run != 0 {
					run, left = 0, size+1+rng.Intn(size+chunkLen)
				} else {
					run, left = 1+rng.Intn(3), 1+rng.Intn(2*size+chunkLen)
				}
			}
			left--
			switch {
			case run == 0:
				kind = 0
			case run == 1:
				kind = 1
			case run == 2:
				kind = 2 + rng.Intn(2)
			case kind == 0:
				kind = 1 + rng.Intn(3)
			}
		}
		ci := r.slots.ci
		switch kind {
		case 0:
			// A dispatch at a negative time takes the generic form.
			cat = CatEngine
			at := pick(rng, now, math.MinInt64, math.MaxInt64)
			want = Event{T: at, Cat: CatEngine, Name: "dispatch"}
			r.Dispatch(at)
		case 1:
			cat = CatNet
			want = Event{T: pick(rng, now, math.MinInt64, math.MaxInt64), Cat: CatNet, Name: "hop",
				Link: a.Link, Bytes: a.Bytes, Dur: pick(rng, int64(k+4), math.MinInt64, math.MaxInt64), Detail: a.Detail}
			r.Hop(want.T, want.Dur, want.Bytes, want.Link, want.Detail)
		case 2:
			want.T = now
			r.Event(cat, name, a)
		default:
			want.T = pick(rng, now-int64(rng.Intn(5)), math.MinInt64, math.MaxInt64)
			want.Dur = pick(rng, int64(k+4), math.MinInt64, math.MaxInt64)
			r.Span(cat, name, want.T, want.Dur, a)
		}
		if !r.Enabled(cat) {
			continue
		}
		want.Seq = uint64(len(all) + 1)
		all = append(all, want)
		if k >= sinkAt {
			wantSunk = append(wantSunk, want)
		}
		h := *r.heads.at(r.heads.cursor() - 1)
		slots := 0
		if h&headTagged != 0 {
			slots = 2
			if h&headHop != 0 {
				slots = 1
			}
		}
		w.add(slots)
		// Read the ring back whenever the head cursor sits at a chunk edge
		// or the ring's end, where the oldest record changes chunk, and
		// whenever the slot cursor moved to another chunk.
		if i := len(all) % size; i%chunkLen <= 1 || i%chunkLen == chunkLen-1 || i >= size-1 || r.slots.ci != ci {
			checkSlotBound(t, r, w)
			if got, kept := r.Events(), all[max(0, len(all)-size):]; !reflect.DeepEqual(got, kept) {
				t.Fatalf("after %d records, Events() differs from the reference's last %d:\ngot  %+v\nwant %+v", len(all), size, got, kept)
			}
		}
	}

	kept := all[max(0, len(all)-size):]
	if got := r.Events(); !reflect.DeepEqual(got, kept) {
		t.Fatalf("Events() differs from the reference's last %d records:\ngot  %+v\nwant %+v", size, got, kept)
	}
	wantRun := Run{BufSize: size, Emitted: uint64(len(all)),
		Dropped: uint64(len(all) - len(kept)), Events: kept}
	if got := r.Snapshot(); !reflect.DeepEqual(got, wantRun) {
		t.Fatalf("Snapshot() = %+v, want %+v", got, wantRun)
	}
	if r.Emitted() != wantRun.Emitted || r.Dropped() != wantRun.Dropped {
		t.Fatalf("Emitted/Dropped = %d/%d, want %d/%d", r.Emitted(), r.Dropped(), wantRun.Emitted, wantRun.Dropped)
	}
	if !reflect.DeepEqual(sunk, wantSunk) {
		t.Fatalf("sink saw %d records, want the %d unmasked ones from the attach point:\ngot  %+v\nwant %+v",
			len(sunk), len(wantSunk), sunk, wantSunk)
	}
	checkSlotBound(t, r, w)
}

// matchRecorders feeds two recorders on one clock n records from emit,
// attaching a sink to both a third of the way in and masking category
// off between that point and the halfway point, and requires both to
// export the same records and sink the same stream.
func matchRecorders(t *testing.T, size int, off Category, emit func(recs [2]*Recorder, rng *rand.Rand, k int, now int64)) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(size)))
	var now int64
	var sunk [2][]Event
	var recs [2]*Recorder
	for i := range recs {
		recs[i] = NewRecorder(size, CatAll)
		recs[i].SetClock(func() int64 { return now })
	}
	n := 5*size + 100
	for k := 0; k < n; k++ {
		if k == n/3 {
			for i, r := range recs {
				r.SetSink(func(ev Event) { sunk[i] = append(sunk[i], ev) })
				r.mask &^= off
			}
		}
		if k == n/2 {
			for _, r := range recs {
				r.mask |= off
			}
		}
		now += int64(rng.Intn(3))
		emit(recs, rng, k, now)
	}
	if a, b := recs[0].Snapshot(), recs[1].Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("size %d: Snapshots differ:\ngot  %+v\nwant %+v", size, a, b)
	}
	if !reflect.DeepEqual(sunk[0], sunk[1]) {
		t.Fatalf("size %d: sink streams differ:\ngot  %+v\nwant %+v", size, sunk[0], sunk[1])
	}
}

// TestDispatchMatchesEvent feeds two recorders the same records, except
// that each engine dispatch goes to one as Dispatch and to the other as
// the generic Event(CatEngine, "dispatch", Attr{}). The first stores
// those as heads alone, the second in two slots, and both must export
// the same records and sink the same stream, across wraps and with
// CatEngine masked off for a stretch.
func TestDispatchMatchesEvent(t *testing.T) {
	for _, size := range []int{1, 5, chunkLen + 3} {
		matchRecorders(t, size, CatEngine, func(recs [2]*Recorder, rng *rand.Rand, k int, now int64) {
			if rng.Intn(3) != 0 {
				recs[0].Dispatch(now)
				recs[1].Event(CatEngine, "dispatch", Attr{})
				return
			}
			a := Attr{Host: fmt.Sprintf("h%d", k), Bytes: int64(k)}
			for _, r := range recs {
				r.Event(CatNet, "hop", a)
			}
		})
	}
}

// TestHopMatchesSpan feeds two recorders the same records, except that
// each netsim hop goes to one as Hop and to the other as the generic
// Span(CatNet, "hop", ...). The first packs Dur and Bytes into one slot
// where they fit, and both must export the same records and sink the
// same stream, across wraps, with CatNet masked off for a stretch, and
// for hops whose Dur or Bytes is negative or too wide to pack.
func TestHopMatchesSpan(t *testing.T) {
	durs := []int64{0, 1, 1<<hopDurBits - 1, 1 << hopDurBits, -1, math.MaxInt64, math.MinInt64}
	sizes := []int64{0, 1500, 1<<hopBytesBits - 1, 1 << hopBytesBits, -1, math.MaxInt64, math.MinInt64}
	for _, size := range []int{1, 5, chunkLen + 3} {
		matchRecorders(t, size, CatNet, func(recs [2]*Recorder, rng *rand.Rand, k int, now int64) {
			switch rng.Intn(4) {
			case 0:
				for _, r := range recs {
					r.Dispatch(now)
				}
			case 1:
				a := Attr{Host: fmt.Sprintf("h%d", k), Rank: k, Detail: "slice"}
				for _, r := range recs {
					r.Span(CatCPU, "slice", now, int64(k), a)
				}
			default:
				start, dur, bytes := now-int64(rng.Intn(5)), int64(k+1), int64(k+2)
				if rng.Intn(3) == 0 {
					dur, bytes = durs[rng.Intn(len(durs))], sizes[rng.Intn(len(sizes))]
				}
				link, detail := fmt.Sprintf("l%d", k), fmt.Sprintf("d%d", k)
				recs[0].Hop(start, dur, bytes, link, detail)
				recs[1].Span(CatNet, "hop", start, dur, Attr{Link: link, Bytes: bytes, Detail: detail})
			}
		})
	}
}

// TestRankPeerOutOfRange pins the 32-bit storage of Rank and Peer: a
// value outside int32 panics naming its field rather than coming back
// truncated.
func TestRankPeerOutOfRange(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: every Rank and Peer fits")
	}
	for _, c := range []struct {
		field string
		a     Attr
	}{
		{"Rank", Attr{Rank: math.MaxInt32 + 1}},
		{"Rank", Attr{Rank: math.MinInt32 - 1}},
		{"Peer", Attr{Peer: math.MaxInt32 + 1}},
		{"Peer", Attr{Peer: math.MinInt32 - 1}},
	} {
		r := NewRecorder(4, CatAll)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Attr."+c.field) {
					t.Errorf("Event with %+v panicked with %q, want a panic naming Attr.%s", c.a, msg, c.field)
				}
			}()
			r.Event(CatMPI, "send", c.a)
		}()
		if r.Emitted() != 0 {
			t.Errorf("Event with %+v was recorded", c.a)
		}
	}
}

// slotsHeld returns how many slots r's cycle has allocated, and how many
// chunks.
func slotsHeld(r *Recorder) (slots, chunks int) {
	for _, c := range r.slots.chunks {
		slots += len(c.s)
	}
	return slots, len(r.slots.chunks)
}

// retention follows how many slots a ring of size records retains: the
// slots of its last size records (none for a dispatch, one for a packed
// hop, two for any other record), and the most they have ever held.
type retention struct {
	size, held, peak int
	last             []int // slots of each record, by emission index mod size
	n                int   // records seen
}

func newRetention(size int) *retention { return &retention{size: size, last: make([]int, size)} }

func (w *retention) add(slots int) {
	i := w.n % w.size
	w.held += slots - w.last[i]
	w.last[i] = slots
	w.n++
	w.peak = max(w.peak, w.held)
}

// checkSlotBound requires r's slot cycle to hold no more chunks than the
// peak retained slots fill plus the one being written, and no more slots
// than 2*size.
func checkSlotBound(t *testing.T, r *Recorder, w *retention) {
	t.Helper()
	slots, chunks := slotsHeld(r)
	if bound := (w.peak+chunkLen-1)/chunkLen + 1; chunks > bound {
		t.Fatalf("after %d records the slot cycle holds %d chunks; the retained records held at most %d slots, so want at most %d",
			w.n, chunks, w.peak, bound)
	}
	if slots > 2*w.size {
		t.Fatalf("after %d records the slot cycle holds %d slots, want at most 2*size = %d", w.n, slots, 2*w.size)
	}
}

// TestRingAllocatesOnDemand pins what a ring costs before and while it
// fills: building a 1<<20-event ring allocates only its two chunk
// tables. k records allocate ⌈k/chunkLen⌉ head chunks, with nothing
// more once the head ring has wrapped. Slot chunks follow the slots the
// retained records hold: never more than ⌈peak/chunkLen⌉ + 1 chunks for
// the most slots they have held, and never more than 2*size slots, so
// long dispatch runs let the cycle reuse its chunks. A head is one word
// and a slot 48 bytes, so a ring costs at most 104 bytes per record of
// capacity on 64-bit platforms, and less when its records are mostly
// dispatches and hops.
func TestRingAllocatesOnDemand(t *testing.T) {
	if got := unsafe.Sizeof(head(0)); got != 8 {
		t.Fatalf("head is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(head(0)) + 2*unsafe.Sizeof(slot{}); got > 104 {
		t.Fatalf("a head and two slots are %d bytes, want at most 104", got)
	}
	// A collection would count the runtime's own allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(1<<20, CatAll)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewRecorder(1<<20) allocated %d bytes before any record, want < 64 KB", got)
	}
	runtime.KeepAlive(r)

	const size = 4*chunkLen + 5
	r = NewRecorder(size, CatAll)
	w := newRetention(size)
	a := Attr{Host: "vm0", Rank: 1}
	emitted := 0
	headChunks := func(n int) int { return (min(n, size) + chunkLen - 1) / chunkLen }
	// Each step emits k records, cycling through kinds: d a dispatch (a
	// head alone), h a hop (one slot), e an event (two slots); chunks,
	// when not 0, is the number of slot chunks the cycle must hold after
	// it. The first steps alternate slot bursts with dispatch runs that
	// drop them. A burst of chunkLen hops fills one chunk exactly, so the
	// next burst finds the slot cursor at the chunk's end and must reuse
	// it; a burst of chunkLen+7 hops spills into a second chunk.
	type step struct {
		k      int
		kinds  string
		chunks int
	}
	steps := []step{{chunkLen, "h", 1}, {size, "d", 1}, {chunkLen, "h", 1}, {size, "d", 1}}
	for i := 0; i < 6; i++ {
		steps = append(steps, step{chunkLen + 7, "h", 2}, step{size, "d", 2}, step{chunkLen / 2, "e", 2}, step{size + 3, "d", 2})
	}
	steps = append(steps, []step{
		{1, "h", 0}, {chunkLen - 1, "h", 0}, {1, "d", 0}, {2*chunkLen + 3, "d", 0},
		{chunkLen, "hd", 0}, {chunkLen, "e", 0}, {size, "h", 0}, {3 * size, "hde", 0},
		{2 * size, "e", 0}, {2 * size, "d", 0}, {size, "e", 0},
	}...)
	for _, st := range steps {
		_, chunks0 := slotsHeld(r)
		runtime.ReadMemStats(&before)
		for i := 0; i < st.k; i++ {
			switch st.kinds[i%len(st.kinds)] {
			case 'd':
				r.Dispatch(int64(i))
				w.add(0)
			case 'h':
				r.Hop(int64(i), 1200, 1500, "vm0-switch", "data")
				w.add(1)
			default:
				r.Event(CatMPI, "send", a)
				w.add(2)
			}
		}
		runtime.ReadMemStats(&after)
		_, chunks1 := slotsHeld(r)
		emitted += st.k
		want := headChunks(emitted) - headChunks(emitted-st.k) + chunks1 - chunks0
		if got := int(after.Mallocs - before.Mallocs); got != want {
			t.Errorf("records %d..%d allocated %d objects, want %d chunks",
				emitted-st.k+1, emitted, got, want)
		}
		checkSlotBound(t, r, w)
		if st.chunks != 0 && chunks1 != st.chunks {
			t.Errorf("after records %d..%d the slot cycle holds %d chunks, want %d",
				emitted-st.k+1, emitted, chunks1, st.chunks)
		}
	}
	if r.Emitted() != uint64(emitted) || len(r.Events()) != size {
		t.Fatalf("Emitted %d, %d retained; want %d, %d", r.Emitted(), len(r.Events()), emitted, size)
	}
	// A ring full of two-slot records holds 2*size slots.
	if slots, chunks := slotsHeld(r); slots != 2*size || chunks != (2*size+chunkLen-1)/chunkLen {
		t.Errorf("a ring full of events holds %d slots in %d chunks, want %d in %d",
			slots, chunks, 2*size, (2*size+chunkLen-1)/chunkLen)
	}
}

// TestDispatchAllocatesNothing pins the engine's per-event record on a
// warm ring: once the head ring has wrapped, Dispatch allocates nothing.
func TestDispatchAllocatesNothing(t *testing.T) {
	r := NewRecorder(chunkLen+5, CatAll)
	for i := 0; i < 2*(chunkLen+5); i++ {
		r.Dispatch(int64(i))
	}
	if got := testing.AllocsPerRun(1000, func() { r.Dispatch(1) }); got != 0 {
		t.Fatalf("Dispatch into a wrapped ring allocated %v objects per call, want 0", got)
	}
}

// TestHopAllocatesNothing pins netsim's per-hop record on a warm ring:
// once both rings have wrapped, Hop allocates nothing, packed or not.
func TestHopAllocatesNothing(t *testing.T) {
	r := NewRecorder(chunkLen+5, CatAll)
	for i := 0; i < 2*(chunkLen+5); i++ {
		r.Hop(int64(i), 1200, 1500, "vm0-switch", "data")
	}
	for _, bytes := range []int64{1500, 1 << hopBytesBits} {
		if got := testing.AllocsPerRun(1000, func() { r.Hop(1, 1200, bytes, "vm0-switch", "data") }); got != 0 {
			t.Fatalf("Hop of %d bytes into a wrapped ring allocated %v objects per call, want 0", bytes, got)
		}
	}
}
