package memmodel

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestProcessOverheadCharged(t *testing.T) {
	l := NewLimiter(10 * 1024)
	p, err := l.NewProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	if l.Used() != ProcessOverheadBytes || p.Used() != ProcessOverheadBytes {
		t.Fatalf("used = %d / %d", l.Used(), p.Used())
	}
}

func TestMallocUpToLimit(t *testing.T) {
	l := NewLimiter(4096)
	p, _ := l.NewProcess("p")
	if err := p.Malloc(4096 - ProcessOverheadBytes); err != nil {
		t.Fatalf("exact-fit Malloc failed: %v", err)
	}
	if err := p.Malloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-limit Malloc = %v", err)
	}
	if l.Used() != l.Limit() {
		t.Fatalf("used = %d of %d", l.Used(), l.Limit())
	}
}

func TestRelease(t *testing.T) {
	l := NewLimiter(4096)
	p, _ := l.NewProcess("p")
	_ = p.Malloc(1000)
	p.Release()
	if l.Used() != 0 {
		t.Fatalf("used after release = %d", l.Used())
	}
	if err := p.Malloc(1); err == nil {
		t.Fatal("Malloc after Release succeeded")
	}
	// Name can be reused.
	if _, err := l.NewProcess("p"); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateProcess(t *testing.T) {
	l := NewLimiter(1 << 20)
	if _, err := l.NewProcess("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.NewProcess("p"); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestOverheadDoesNotFit(t *testing.T) {
	l := NewLimiter(512)
	if _, err := l.NewProcess("p"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeMalloc(t *testing.T) {
	l := NewLimiter(4096)
	p, _ := l.NewProcess("p")
	if err := p.Malloc(-5); err == nil {
		t.Fatal("negative Malloc accepted")
	}
}

func TestPeakTracking(t *testing.T) {
	l := NewLimiter(1 << 20)
	p, _ := l.NewProcess("p")
	_ = p.Malloc(5000)
	p.Release()
	if l.Peak != ProcessOverheadBytes+5000 {
		t.Fatalf("peak = %d", l.Peak)
	}
}

// TestFig5Linearity is the paper's Figure 5: across limits from 1 KB to
// 1 MB, the maximum allocatable memory is the limit minus ~1 KB overhead.
func TestFig5Linearity(t *testing.T) {
	for _, limitKB := range []int64{1, 2, 10, 100, 500, 1000} {
		limit := limitKB * 1024
		got := MaxAllocatable(limit, 256)
		want := limit - ProcessOverheadBytes
		if got != want {
			t.Errorf("limit %d KB: allocated %d, want %d", limitKB, got, want)
		}
	}
}

// Property: for any limit and chunk size, allocation never exceeds
// limit - overhead, and always reaches it exactly (byte-refined).
func TestPropertyMaxAllocatable(t *testing.T) {
	f := func(limKB uint16, chunkRaw uint16) bool {
		limit := int64(limKB%1024+1) * 1024
		chunk := int64(chunkRaw%4096 + 1)
		got := MaxAllocatable(limit, chunk)
		return got == limit-ProcessOverheadBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of mallocs, negative and over-limit ones
// rejected, keeps the limiter's accounting consistent: Used == sum of
// process usage, never exceeding the limit.
func TestPropertyAccountingConsistent(t *testing.T) {
	f := func(ops []int16) bool {
		l := NewLimiter(64 * 1024)
		p, err := l.NewProcess("p")
		if err != nil {
			return false
		}
		for _, op := range ops {
			if err := p.Malloc(int64(op) * 16); op < 0 && err == nil {
				return false
			}
			if l.Used() != p.Used() || l.Used() > l.Limit() || p.Used() < ProcessOverheadBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
