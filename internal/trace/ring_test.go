package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRingMatchesReference drives a Recorder and a naive reference side
// by side on seeded random schedules. The reference appends every
// unmasked record to a slice and keeps the last N, so any slip in the
// ring's slot choice, wrap, sequence numbering or field copy shows up as
// a diff in Events, Snapshot, the counters or the sink's stream.
func TestRingMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 64, 1000} {
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
			r.Disable(CatNet | CatCPU)
		}
		if k == maskAt+size {
			r.Enable(CatNet)
		}
		if k == sinkAt {
			r.SetSink(func(ev Event) { sunk = append(sunk, ev) })
		}
		now += int64(rng.Intn(3))
		// Every field gets a value derived from k, so a field copied
		// from the wrong record or left stale in a reused slot differs.
		cat := cats[rng.Intn(len(cats))]
		name := fmt.Sprintf("n%d", k)
		a := Attr{
			Host: fmt.Sprintf("h%d", k), Link: fmt.Sprintf("l%d", k),
			Rank: k + 1, Peer: k + 2, Bytes: int64(k + 3),
			Detail: fmt.Sprintf("d%d", k),
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
