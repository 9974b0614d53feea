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
// ring's slot choice, wrap, sequence numbering or field copy shows up as
// a diff in Events, Snapshot, the counters or the sink's stream. The
// sizes around chunkLen put the wrap on, before and after a chunk edge.
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
		// A quarter of the records carry no attributes, as the engine's
		// dispatch records do, so a slot reused by one must clear them.
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
		if rng.Intn(2) == 0 {
			want.T = now
			r.Event(cat, name, a)
		} else {
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

// TestRingAllocatesOnDemand pins what a ring costs before and while it
// fills: building a 1<<20-event ring allocates only its chunk table, and
// k records allocate ⌈k/chunkLen⌉ chunks, with nothing more once the
// ring has wrapped. A slot is an Event without its 8-byte Seq (112 bytes
// on 64-bit platforms).
func TestRingAllocatesOnDemand(t *testing.T) {
	if got, want := unsafe.Sizeof(slot{}), unsafe.Sizeof(Event{})-8; got != want {
		t.Fatalf("slot is %d bytes, want %d", got, want)
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
	emitted := 0
	for _, k := range []int{1, chunkLen - 1, 1, 2*chunkLen + 3, size, 3 * size} {
		runtime.ReadMemStats(&before)
		for i := 0; i < k; i++ {
			r.Event(CatNet, "hop", a)
		}
		runtime.ReadMemStats(&after)
		emitted += k
		chunks := func(n int) int { return (min(n, size) + chunkLen - 1) / chunkLen }
		want := chunks(emitted) - chunks(emitted-k)
		if got := int(after.Mallocs - before.Mallocs); got != want {
			t.Errorf("records %d..%d allocated %d objects, want %d chunks", emitted-k+1, emitted, got, want)
		}
	}
	if r.Emitted() != uint64(emitted) || len(r.Events()) != size {
		t.Fatalf("Emitted %d, %d retained; want %d, %d", r.Emitted(), len(r.Events()), emitted, size)
	}
}
