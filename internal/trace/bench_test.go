package trace

import "testing"

// Run these with a fixed iteration count so every sample does the same
// work, e.g.
//
//	go test -run '^$' -bench . -benchtime 1000000x -count 5 ./internal/trace
//
// Each uses a DefaultBufSize ring, the size a traced run records into: a
// ring that fits in L1 would hide the cost of writing the record.

// hopTx is the serialization time of a 1500-byte packet on a 100 Mb/s
// link, in virtual nanoseconds.
const hopTx = 120_000

// BenchmarkRecordHop is netsim's per-hop record as netsim emits it: a
// span over the packet's serialization with a link, a byte count and the
// packet kind, through Hop, which packs it into one slot.
func BenchmarkRecordHop(b *testing.B) {
	r := NewRecorder(DefaultBufSize, CatAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Hop(int64(i)*hopTx, hopTx, 1500, "vm0->switch", "DATA")
	}
}

// BenchmarkRecordHopSpan is the same record through the generic path:
// Span(CatNet, "hop", ...) with an Attr, stored in two slots.
func BenchmarkRecordHopSpan(b *testing.B) {
	r := NewRecorder(DefaultBufSize, CatAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span(CatNet, "hop", int64(i)*hopTx, hopTx, Attr{Link: "vm0->switch", Bytes: 1500, Detail: "DATA"})
	}
}

// BenchmarkRecordDispatch is the engine's per-event record, the most
// frequent record in a CatAll trace: Dispatch stores a head alone.
func BenchmarkRecordDispatch(b *testing.B) {
	r := NewRecorder(DefaultBufSize, CatAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Dispatch(int64(i))
	}
}

// BenchmarkRecordDispatchEvent is the same record through the generic
// path: CatEngine with no attributes, read off the virtual clock and
// stored in two slots.
func BenchmarkRecordDispatchEvent(b *testing.B) {
	r := NewRecorder(DefaultBufSize, CatAll)
	var now int64
	r.SetClock(func() int64 { return now })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now++
		r.Event(CatEngine, "dispatch", Attr{})
	}
}

// BenchmarkRecordSpan is a completed CPU slice: a span with a host and a
// detail string.
func BenchmarkRecordSpan(b *testing.B) {
	r := NewRecorder(DefaultBufSize, CatAll)
	a := Attr{Host: "vm0", Detail: "rank-0"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span(CatCPU, "slice", int64(i), 10, a)
	}
}
