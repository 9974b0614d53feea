package simcore

import (
	"testing"
	"testing/quick"
)

func TestMutexExclusion(t *testing.T) {
	e := NewEngine(1)
	m := NewMutex(e)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < 10; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(Millisecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	if m.held {
		t.Fatal("mutex left held")
	}
	// 5 workers × 10 holds × 1 ms: every holder waited its turn.
	if e.Now() != Time(50*Millisecond) {
		t.Fatalf("run ended at %v, want 50ms", e.Now())
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMutex(NewEngine(1)).Unlock()
}

// Property: under any interleaving of hold durations, the critical
// section is exclusive and every worker completes.
func TestPropertyMutexSerializes(t *testing.T) {
	f := func(holds []uint8) bool {
		if len(holds) == 0 || len(holds) > 12 {
			return true
		}
		e := NewEngine(13)
		m := NewMutex(e)
		busy := false
		completed := 0
		ok := true
		for _, h := range holds {
			h := h
			e.Spawn("w", func(p *Proc) {
				m.Lock(p)
				if busy {
					ok = false
				}
				busy = true
				p.Sleep(Duration(h%10+1) * Microsecond)
				busy = false
				m.Unlock()
				completed++
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && completed == len(holds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
