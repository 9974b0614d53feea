package netsim

import "sort"

// intervalSet tracks received byte ranges [start, end) as a sorted list of
// disjoint intervals. It makes the receiver robust to overlapping
// retransmissions with different segment boundaries (go-back-N after a
// timeout re-cuts the stream at new offsets).
type intervalSet struct {
	iv []interval
}

type interval struct {
	start, end int64
}

// add inserts [start, end), merging with any overlapping or adjacent
// intervals.
func (s *intervalSet) add(start, end int64) {
	if start >= end {
		return
	}
	// Locate insertion point of the first interval whose end >= start.
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end >= start })
	j := i
	for j < len(s.iv) && s.iv[j].start <= end {
		if s.iv[j].start < start {
			start = s.iv[j].start
		}
		if s.iv[j].end > end {
			end = s.iv[j].end
		}
		j++
	}
	if i == j {
		// Nothing to merge: insert in place.
		s.iv = append(s.iv, interval{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = interval{start, end}
		return
	}
	// Overwrite the first merged interval and close the gap behind it.
	s.iv[i] = interval{start, end}
	s.iv = append(s.iv[:i+1], s.iv[j:]...)
}

// contiguousFrom returns the largest y such that [x, y) is fully covered
// (returns x when x itself is not covered).
func (s *intervalSet) contiguousFrom(x int64) int64 {
	for _, iv := range s.iv {
		if iv.start <= x && x < iv.end {
			return iv.end
		}
		if iv.start > x {
			break
		}
	}
	// x may equal the end of a covered prefix starting at x==0 with empty
	// coverage, or sit exactly at an interval start.
	for _, iv := range s.iv {
		if iv.start == x {
			return iv.end
		}
	}
	return x
}

// covered reports whether [start, end) is fully covered.
func (s *intervalSet) covered(start, end int64) bool {
	for _, iv := range s.iv {
		if iv.start <= start && end <= iv.end {
			return true
		}
	}
	return false
}

// count returns the number of disjoint intervals (for tests).
func (s *intervalSet) count() int { return len(s.iv) }
