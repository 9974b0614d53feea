package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalSetBasic(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	if got := s.contiguousFrom(0); got != 10 {
		t.Fatalf("contiguousFrom(0) = %d", got)
	}
	s.add(20, 30)
	if s.count() != 2 {
		t.Fatalf("count = %d", s.count())
	}
	s.add(10, 20) // bridges the gap
	if s.count() != 1 || s.contiguousFrom(0) != 30 {
		t.Fatalf("after bridge: count=%d cont=%d", s.count(), s.contiguousFrom(0))
	}
}

func TestIntervalSetOverlaps(t *testing.T) {
	var s intervalSet
	s.add(5, 15)
	s.add(0, 8) // overlaps left
	if s.count() != 1 || !s.covered(0, 15) {
		t.Fatalf("count=%d", s.count())
	}
	s.add(10, 25) // overlaps right
	if s.count() != 1 || !s.covered(0, 25) {
		t.Fatalf("count=%d", s.count())
	}
	s.add(3, 9) // fully inside
	if s.count() != 1 || s.contiguousFrom(0) != 25 {
		t.Fatalf("count=%d cont=%d", s.count(), s.contiguousFrom(0))
	}
}

func TestIntervalSetEmptyAdd(t *testing.T) {
	var s intervalSet
	s.add(5, 5)
	s.add(7, 3)
	if s.count() != 0 {
		t.Fatalf("degenerate adds created intervals: %d", s.count())
	}
	if s.contiguousFrom(0) != 0 {
		t.Fatalf("contiguousFrom on empty = %d", s.contiguousFrom(0))
	}
}

func TestIntervalSetGapAtStart(t *testing.T) {
	var s intervalSet
	s.add(5, 10)
	if got := s.contiguousFrom(0); got != 0 {
		t.Fatalf("contiguousFrom(0) with gap = %d", got)
	}
	if got := s.contiguousFrom(5); got != 10 {
		t.Fatalf("contiguousFrom(5) = %d", got)
	}
}

// Property: intervalSet agrees with a naive bitmap model under arbitrary
// overlapping adds — the robustness the TCP receiver depends on after
// go-back-N re-segmentation.
func TestPropertyIntervalSetMatchesBitmap(t *testing.T) {
	f := func(pairs []uint8) bool {
		var s intervalSet
		const n = 64
		var bits [n]bool
		for i := 0; i+1 < len(pairs); i += 2 {
			a := int64(pairs[i] % n)
			b := int64(pairs[i+1] % n)
			if a > b {
				a, b = b, a
			}
			s.add(a, b)
			for k := a; k < b; k++ {
				bits[k] = true
			}
		}
		// contiguousFrom(0) must equal the length of the true prefix.
		want := int64(0)
		for want < n && bits[want] {
			want++
		}
		if s.contiguousFrom(0) != want {
			return false
		}
		// covered must agree with the bitmap on all aligned ranges.
		for a := int64(0); a < n; a += 7 {
			for b := a + 1; b <= n; b += 11 {
				cov := true
				for k := a; k < b; k++ {
					if !bits[k] {
						cov = false
						break
					}
				}
				if s.covered(a, b) != cov {
					return false
				}
			}
		}
		// Intervals must be sorted and disjoint.
		for i := 1; i < len(s.iv); i++ {
			if s.iv[i-1].end >= s.iv[i].start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalSetInPlaceMatchesReference drives the in-place merge with a
// seeded mix of TCP-receiver shapes — in-order extension, gaps,
// retransmissions cut at new offsets that overlap what arrived, and
// inserts before, between and after existing intervals — and checks the
// set against a naive byte-coverage reference after every add.
func TestIntervalSetInPlaceMatchesReference(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		var s intervalSet
		var cov [n]bool
		next := int64(0) // the in-order sender's next byte
		for op := 0; op < 60; op++ {
			var a, b int64
			switch k := rng.Intn(5); {
			case k == 0 && next < n: // in-order extension
				a, b = next, min(next+1+rng.Int63n(24), n)
				next = b
			case k == 1 && next < n: // a gap, then a segment past it
				a = min(next+1+rng.Int63n(32), n-1)
				b = min(a+1+rng.Int63n(24), n)
				next = b
			case k == 2: // a retransmission re-cut at a new offset
				a = rng.Int63n(max(next, 1))
				b = min(a+1+rng.Int63n(48), n)
			default: // anywhere: before, between or after intervals
				a = rng.Int63n(n)
				b = min(a+rng.Int63n(40), n)
			}
			s.add(a, b)
			for k := a; k < b; k++ {
				cov[k] = true
			}
			checkIntervals(t, &s, cov[:], trial, op)
			if t.Failed() {
				return
			}
		}
	}
}

// checkIntervals compares s with the reference coverage cov: intervals
// sorted, disjoint and non-adjacent, covering exactly cov's bytes, and
// contiguousFrom and covered agreeing with it.
func checkIntervals(t *testing.T, s *intervalSet, cov []bool, trial, op int) {
	t.Helper()
	got := make([]bool, len(cov))
	for i, iv := range s.iv {
		if iv.start >= iv.end {
			t.Fatalf("trial %d op %d: empty interval %v in %v", trial, op, iv, s.iv)
		}
		if i > 0 && s.iv[i-1].end >= iv.start {
			t.Fatalf("trial %d op %d: intervals overlap, touch or are unsorted: %v", trial, op, s.iv)
		}
		for k := iv.start; k < iv.end; k++ {
			got[k] = true
		}
	}
	for k := range cov {
		if got[k] != cov[k] {
			t.Fatalf("trial %d op %d: byte %d covered=%v, want %v (%v)", trial, op, k, got[k], cov[k], s.iv)
		}
	}
	// runEnd[x] is the end of the covered run starting at x (x itself
	// when byte x is not covered).
	runEnd := make([]int64, len(cov)+1)
	runEnd[len(cov)] = int64(len(cov))
	for x := len(cov) - 1; x >= 0; x-- {
		runEnd[x] = int64(x)
		if cov[x] {
			runEnd[x] = runEnd[x+1]
		}
	}
	for x := range runEnd {
		if got := s.contiguousFrom(int64(x)); got != runEnd[x] {
			t.Fatalf("trial %d op %d: contiguousFrom(%d) = %d, want %d (%v)", trial, op, x, got, runEnd[x], s.iv)
		}
	}
	for a := 0; a < len(cov); a += 7 {
		for b := a + 1; b <= len(cov); b += 11 {
			want := runEnd[a] >= int64(b)
			if got := s.covered(int64(a), int64(b)); got != want {
				t.Fatalf("trial %d op %d: covered(%d, %d) = %v, want %v (%v)", trial, op, a, b, got, want, s.iv)
			}
		}
	}
}
