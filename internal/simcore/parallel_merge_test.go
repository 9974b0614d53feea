package simcore

import (
	"reflect"
	"sort"
	"testing"
)

// The adversarial cross-shard merge test (ISSUE 6 satellite): every host
// fires at every instant and sprays same-instant events across shard
// boundaries, so each barrier must interleave many due events with equal
// timestamps. The deterministic merge rule — deliver by (time, source
// shard, send seq) — must reproduce a plain Engine's golden (time,
// seq) order for every observable stream at every shard count.
//
// Observables are compared in the partition-independent order
// (time, owner host, per-owner index): shards own disjoint seq spaces,
// so raw engine seqs differ across partitions by construction, but the
// per-owner event order is exactly what (time, seq) dictates serially
// and what barrier delivery dictates in parallel. Any merge bug —
// unstable sort, dropped tie-break, wrong queue drain order — shows up
// as a reordered or missing record.

const (
	mergeHosts  = 8
	mergeRounds = 24
	mergeStep   = Millisecond // tick period == lookahead
)

// mergeRec is one observable: host dst received a message from host src
// at time t in round r.
type mergeRec struct {
	T     Time
	Dst   int
	Src   int
	Round int
}

// mergeWorkload drives the host mesh through a send primitive: at every
// tick each host h sends, deliberately not in destination order, to
// h+3, h+1, h+5 (mod H) and re-arms its own tick — all scheduled exactly
// one lookahead ahead, so in the parallel engine every message crosses a
// window barrier and self-ticks ride the same queues as real traffic.
func mergeWorkload(send func(src, dst int, at Time, fn func()), logs [][]mergeRec) {
	var tick func(h, round int) func()
	tick = func(h, round int) func() {
		return func() {
			if round >= mergeRounds {
				return
			}
			at := Time(round+2) * Time(mergeStep)
			for _, off := range []int{3, 1, 5} {
				dst := (h + off) % mergeHosts
				src, r := h, round
				send(h, dst, at, func() {
					logs[dst] = append(logs[dst], mergeRec{T: at, Dst: dst, Src: src, Round: r})
				})
			}
			send(h, h, at, tick(h, round+1))
		}
	}
	for h := 0; h < mergeHosts; h++ {
		send(h, h, Time(mergeStep), tick(h, 0))
	}
}

// mergeObserved flattens per-host logs into the (time, owner host,
// per-owner index) order.
func mergeObserved(logs [][]mergeRec) []mergeRec {
	type keyed struct {
		rec mergeRec
		idx int
	}
	var all []keyed
	for h := 0; h < mergeHosts; h++ {
		for i, r := range logs[h] {
			all = append(all, keyed{rec: r, idx: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.rec.T != b.rec.T {
			return a.rec.T < b.rec.T
		}
		if a.rec.Dst != b.rec.Dst {
			return a.rec.Dst < b.rec.Dst
		}
		return a.idx < b.idx
	})
	out := make([]mergeRec, len(all))
	for i, k := range all {
		out[i] = k.rec
	}
	return out
}

// serialGolden runs the mesh on a plain Engine, where (time, seq) is
// the ground-truth total order.
func serialGolden(t *testing.T) []mergeRec {
	t.Helper()
	se := NewEngine(3)
	logs := make([][]mergeRec, mergeHosts)
	mergeWorkload(func(src, dst int, at Time, fn func()) {
		se.At(at, fn)
	}, logs)
	if err := se.Run(); err != nil {
		t.Fatal(err)
	}
	return mergeObserved(logs)
}

// shardOf is the block partition of hosts onto shards; it is monotone,
// which is what makes (shard, send seq) agree with global host order.
func shardOf(h, shards int) int { return h * shards / mergeHosts }

func TestCrossShardMergeMatchesSerialGolden(t *testing.T) {
	golden := serialGolden(t)
	wantLen := mergeHosts * mergeRounds * 3
	if len(golden) != wantLen {
		t.Fatalf("golden has %d records, want %d", len(golden), wantLen)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		pe := NewParallelEngine(3, shards)
		pe.SetLookahead(mergeStep)
		logs := make([][]mergeRec, mergeHosts)
		mergeWorkload(func(src, dst int, at Time, fn func()) {
			pe.Send(shardOf(src, shards), shardOf(dst, shards), at, fn)
		}, logs)
		if err := pe.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := mergeObserved(logs)
		if !reflect.DeepEqual(got, golden) {
			for i := range golden {
				if i >= len(got) || got[i] != golden[i] {
					t.Fatalf("shards=%d: diverges at record %d: got %+v, want %+v",
						shards, i, got[i], golden[i])
				}
			}
			t.Fatalf("shards=%d: observed stream diverges from serial golden", shards)
		}
		// Sanity: with >1 shard, the mesh genuinely crossed boundaries.
		if shards > 1 && pe.CrossEvents() == 0 {
			t.Fatalf("shards=%d: no cross-shard events — test lost its teeth", shards)
		}
	}
}
