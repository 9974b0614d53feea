package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestRingMatchesReference drives a Recorder and a naive reference side
// by side on seeded random schedules. The reference appends every
// unmasked record to a slice and keeps the last N, so any slip in the
// ring's head or slot choice, wrap, sequence numbering or field copy
// shows up as a diff in Events, Snapshot, the counters or the sink's
// stream. Dispatch records are mixed in, each expected as a plain
// {CatEngine, "dispatch"} record. The sizes around chunkLen put the
// wrap on, before and after a chunk edge.
func TestRingMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 1000, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("size=%d/seed=%d", size, seed), func(t *testing.T) {
				checkRingAgainstReference(t, size, seed)
			})
		}
	}
}

func checkRingAgainstReference(t *testing.T, size int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cats := []Category{CatEngine, CatProc, CatCPU, CatNet, CatMPI, CatLog}
	r := NewRecorder(size, CatAll)
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
		// from the wrong record or left stale in a reused slot differs.
		// A quarter of the records carry no attributes. A third go
		// through Dispatch, which stores a head and no slot, so the slot
		// ring runs behind the head ring by a varying amount.
		cat := cats[rng.Intn(len(cats))]
		name := fmt.Sprintf("n%d", k)
		var a Attr
		if rng.Intn(4) != 0 {
			a = Attr{
				Host: fmt.Sprintf("h%d", k), Link: fmt.Sprintf("l%d", k),
				Rank: k + 1, Peer: k + 2, Bytes: int64(k + 3),
				Detail: fmt.Sprintf("d%d", k),
			}
		}
		want := Event{Cat: cat, Name: name, Host: a.Host, Link: a.Link,
			Rank: a.Rank, Peer: a.Peer, Bytes: a.Bytes, Detail: a.Detail}
		switch rng.Intn(3) {
		case 0:
			cat = CatEngine
			want = Event{T: now, Cat: CatEngine, Name: "dispatch"}
			r.Dispatch(now)
		case 1:
			want.T = now
			r.Event(cat, name, a)
		default:
			want.T, want.Dur = now-int64(rng.Intn(5)), int64(k+4)
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

// TestDispatchMatchesEvent feeds two recorders on one clock the same
// records, except that each engine dispatch goes to one as Dispatch and
// to the other as the generic Event(CatEngine, "dispatch", Attr{}). The
// first stores those as heads alone, the second as full slots, and both
// must export the same records and sink the same stream, across wraps
// and with CatEngine masked off for a stretch.
func TestDispatchMatchesEvent(t *testing.T) {
	for _, size := range []int{1, 5, chunkLen + 3} {
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
					r.mask &^= CatEngine
				}
			}
			if k == n/2 {
				for _, r := range recs {
					r.mask |= CatEngine
				}
			}
			now += int64(rng.Intn(3))
			if rng.Intn(3) != 0 {
				recs[0].Dispatch(now)
				recs[1].Event(CatEngine, "dispatch", Attr{})
				continue
			}
			a := Attr{Host: fmt.Sprintf("h%d", k), Bytes: int64(k)}
			for _, r := range recs {
				r.Event(CatNet, "hop", a)
			}
		}
		if a, b := recs[0].Snapshot(), recs[1].Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("size %d: Snapshot after Dispatch differs from after Event:\ngot  %+v\nwant %+v", size, a, b)
		}
		if !reflect.DeepEqual(sunk[0], sunk[1]) {
			t.Fatalf("size %d: sink stream after Dispatch differs from after Event:\ngot  %+v\nwant %+v", size, sunk[0], sunk[1])
		}
	}
}

// TestRingAllocatesOnDemand pins what a ring costs before and while it
// fills: building a 1<<20-event ring allocates only its two chunk
// tables; k records allocate ⌈k/chunkLen⌉ head chunks and the records
// other than dispatches ⌈k/chunkLen⌉ slot chunks, with nothing more once
// both rings have wrapped. A head and a slot together are an Event
// without its 8-byte Seq (112 bytes on 64-bit platforms), so a ring's
// bytes per record of capacity are those of the single-slot ring it
// replaced.
func TestRingAllocatesOnDemand(t *testing.T) {
	if got := unsafe.Sizeof(head{}); got != 16 {
		t.Fatalf("head is %d bytes, want 16", got)
	}
	if got, want := unsafe.Sizeof(head{})+unsafe.Sizeof(slot{}), unsafe.Sizeof(Event{})-8; got != want {
		t.Fatalf("head+slot is %d bytes, want %d", got, want)
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
	a := Attr{Host: "vm0", Link: "vm0-switch", Bytes: 1500}
	emitted, slotted := 0, 0
	chunks := func(n int) int { return (min(n, size) + chunkLen - 1) / chunkLen }
	// Each step emits k records, of which every every-th is a hop (a
	// slot) and the rest dispatches (a head alone); every 0 means all
	// dispatches.
	for _, step := range []struct{ k, every int }{
		{1, 1}, {chunkLen - 1, 1}, {1, 0}, {2*chunkLen + 3, 0},
		{chunkLen, 2}, {size, 1}, {3 * size, 3}, {2 * size, 0},
	} {
		hops := 0
		runtime.ReadMemStats(&before)
		for i := 0; i < step.k; i++ {
			if step.every != 0 && i%step.every == 0 {
				r.Event(CatNet, "hop", a)
				hops++
			} else {
				r.Dispatch(int64(i))
			}
		}
		runtime.ReadMemStats(&after)
		emitted += step.k
		slotted += hops
		want := chunks(emitted) - chunks(emitted-step.k) + chunks(slotted) - chunks(slotted-hops)
		if got := int(after.Mallocs - before.Mallocs); got != want {
			t.Errorf("records %d..%d (%d hops) allocated %d objects, want %d chunks",
				emitted-step.k+1, emitted, hops, got, want)
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
