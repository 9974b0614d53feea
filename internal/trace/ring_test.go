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
// slots), so the slot ring runs behind the head ring by a varying amount
// and a two-slot record's halves land on either side of the ring's end.
// The sizes around chunkLen put the wrap on, before and after a chunk
// edge; 1023 to 1025 and 3077 put it inside a chunk, near its middle.
func TestRingMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 1000, 1023, 1024, 1025, 3077,
		chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				checkRingAgainstReference(t, size, seed)
			})
		}
	}
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

func checkRingAgainstReference(t *testing.T, size int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cats := []Category{CatEngine, CatProc, CatCPU, CatNet, CatMPI, CatLog,
		CatNet | CatMPI, CatAll, CatLog | 1<<31}
	r := NewRecorder(size, CatAll|1<<31)
	var now int64
	r.SetClock(func() int64 { return now })

	var all, sunk, wantSunk []Event // every stored record; sink stream
	n := 3*size + rng.Intn(4*size+50)
	maskAt, sinkAt := rng.Intn(n), rng.Intn(n)
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
		switch rng.Intn(4) {
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
		// Read the ring back whenever the write cursor sits at a chunk
		// edge or the ring's end, where the oldest record changes chunk.
		if w := len(all) % size; w%chunkLen <= 1 || w%chunkLen == chunkLen-1 || w >= size-1 {
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

// TestRingAllocatesOnDemand pins what a ring costs before and while it
// fills: building a 1<<20-event ring allocates only its two chunk
// tables; k records allocate ⌈k/chunkLen⌉ head chunks, and the slots
// they take (none for a dispatch, one for a packed hop, two for any
// other record) ⌈slots/chunkLen⌉ slot chunks of the slot ring's 2*size,
// with nothing more once both rings have wrapped. A head is one word and
// a slot 48 bytes, so a ring costs at most 104 bytes per record of
// capacity on 64-bit platforms.
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
	a := Attr{Host: "vm0", Rank: 1}
	emitted, slotted := 0, 0
	chunks := func(n, of int) int { return (min(n, of) + chunkLen - 1) / chunkLen }
	// Each step emits k records, cycling through kinds: d a dispatch (a
	// head alone), h a hop (one slot), e an event (two slots).
	for _, step := range []struct {
		k     int
		kinds string
	}{
		{1, "h"}, {chunkLen - 1, "h"}, {1, "d"}, {2*chunkLen + 3, "d"},
		{chunkLen, "hd"}, {chunkLen, "e"}, {size, "h"}, {3 * size, "hde"},
		{2 * size, "e"}, {2 * size, "d"},
	} {
		slots := 0
		runtime.ReadMemStats(&before)
		for i := 0; i < step.k; i++ {
			switch step.kinds[i%len(step.kinds)] {
			case 'd':
				r.Dispatch(int64(i))
			case 'h':
				r.Hop(int64(i), 1200, 1500, "vm0-switch", "data")
				slots++
			default:
				r.Event(CatMPI, "send", a)
				slots += 2
			}
		}
		runtime.ReadMemStats(&after)
		emitted += step.k
		slotted += slots
		want := chunks(emitted, size) - chunks(emitted-step.k, size) +
			chunks(slotted, 2*size) - chunks(slotted-slots, 2*size)
		if got := int(after.Mallocs - before.Mallocs); got != want {
			t.Errorf("records %d..%d (%d slots) allocated %d objects, want %d chunks",
				emitted-step.k+1, emitted, slots, got, want)
		}
	}
	if r.Emitted() != uint64(emitted) || len(r.Events()) != size {
		t.Fatalf("Emitted %d, %d retained; want %d, %d", r.Emitted(), len(r.Events()), emitted, size)
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
