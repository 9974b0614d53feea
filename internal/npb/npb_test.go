package npb

import (
	"fmt"
	"testing"
	"testing/quick"

	"microgrid/internal/mpi"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

func runBench(t *testing.T, name string, class Class, n int) simcore.Duration {
	t.Helper()
	eng := simcore.NewEngine(1)
	g, err := virtual.NewLANGrid(eng, "vm", n, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*virtual.Host, n)
	for i := range hosts {
		hosts[i] = g.Host(fmt.Sprintf("vm%d", i))
	}
	fn, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.Launch(hosts, name, 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return fn(c, Params{Class: class})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w.MaxElapsed()
}

func TestAllBenchmarksClassS(t *testing.T) {
	for _, name := range append(Names(), "SP") {
		name := name
		t.Run(name, func(t *testing.T) {
			el := runBench(t, name, ClassS, 4)
			if el <= 0 {
				t.Fatalf("%s elapsed = %v", name, el)
			}
			t.Logf("%s class S on 4×533MIPS: %v", name, el)
		})
	}
}

func TestEPScalesWithRanks(t *testing.T) {
	t1 := runBench(t, "EP", ClassS, 1)
	t4 := runBench(t, "EP", ClassS, 4)
	speedup := t1.Seconds() / t4.Seconds()
	if speedup < 3.2 || speedup > 4.2 {
		t.Fatalf("EP 4-rank speedup = %.2f, want ≈4 (t1=%v t4=%v)", speedup, t1, t4)
	}
}

func TestEPDeterministic(t *testing.T) {
	if a, b := runBench(t, "EP", ClassS, 2), runBench(t, "EP", ClassS, 2); a != b {
		t.Fatalf("EP nondeterministic: %v vs %v", a, b)
	}
}

func TestISWorksVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		if el := runBench(t, "IS", ClassS, n); el <= 0 {
			t.Fatalf("IS n=%d elapsed %v", n, el)
		}
	}
}

func TestLUWorksOddSizes(t *testing.T) {
	if el := runBench(t, "LU", ClassS, 3); el <= 0 {
		t.Fatalf("LU n=3 elapsed %v", el)
	}
}

func TestMGWorksVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		if el := runBench(t, "MG", ClassS, n); el <= 0 {
			t.Fatalf("MG n=%d elapsed %v", n, el)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("ZZ"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAllClassesDefinedForAllBenchmarks(t *testing.T) {
	// Every kernel must accept every class's size lookup; exercised via a
	// zero-compute dry run is too slow for A/B, so check the size tables
	// directly.
	for _, class := range []Class{ClassS, ClassW, ClassA, ClassB} {
		if _, err := epPairs(class); err != nil {
			t.Errorf("EP %c: %v", class, err)
		}
		if _, _, err := mgSize(class); err != nil {
			t.Errorf("MG %c: %v", class, err)
		}
		if _, _, err := luSize(class); err != nil {
			t.Errorf("LU %c: %v", class, err)
		}
		if _, _, err := btSize(class); err != nil {
			t.Errorf("BT %c: %v", class, err)
		}
		if _, _, err := isKeys(class); err != nil {
			t.Errorf("IS %c: %v", class, err)
		}
		if _, _, err := spSize(class); err != nil {
			t.Errorf("SP %c: %v", class, err)
		}
	}
}

func TestClassSizesMonotone(t *testing.T) {
	classes := []Class{ClassS, ClassW, ClassA, ClassB}
	var prevPairs int64
	for _, c := range classes {
		p, _ := epPairs(c)
		if p <= prevPairs {
			t.Fatalf("EP pairs not monotone at class %c", c)
		}
		prevPairs = p
	}
}

func TestUnsupportedClassErrors(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, err := virtual.NewLANGrid(eng, "vm", 1, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.Launch([]*virtual.Host{g.Host("vm0")}, "bad", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunEP(c, Params{Class: Class('Z')})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Err() == nil {
		t.Fatal("class Z accepted by EP")
	}
}

func TestHooksProgress(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, err := virtual.NewLANGrid(eng, "vm", 2, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []*virtual.Host{g.Host("vm0"), g.Host("vm1")}
	count := 0
	hooks := &Hooks{Progress: func(rank, iter int, v float64) {
		if rank == 0 {
			count++
		}
	}}
	w, err := mpi.Launch(hosts, "mg", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunMG(c, Params{Class: ClassS, Hooks: hooks})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 4 { // MG class S: 4 V-cycles
		t.Fatalf("progress calls = %d, want 4", count)
	}
}

func TestFactor2(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 9: {3, 3}, 12: {4, 3}}
	for p, want := range cases {
		x, y := factor2(p)
		if x != want[0] || y != want[1] {
			t.Errorf("factor2(%d) = (%d,%d), want %v", p, x, y, want)
		}
	}
}

func TestFactor3(t *testing.T) {
	for p := 1; p <= 64; p++ {
		x, y, z := factor3(p)
		if x*y*z != p {
			t.Fatalf("factor3(%d) = %d×%d×%d", p, x, y, z)
		}
		if x < y || y < z {
			t.Fatalf("factor3(%d) not ordered: %d,%d,%d", p, x, y, z)
		}
	}
	if x, y, z := factor3(8); x != 2 || y != 2 || z != 2 {
		t.Fatalf("factor3(8) = %d,%d,%d", x, y, z)
	}
}

// Property: chunk splits conserve the total and differ by at most one.
func TestPropertyChunkConserves(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw%16) + 1
		sum, mn, mx := 0, n+1, -1
		for r := 0; r < p; r++ {
			c := chunk(n, p, r)
			sum += c
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		return sum == n && mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRelativeMagnitudes checks the class-S ordering that underpins the
// figure-10 shape: EP is compute-dominated and the largest class-S time.
func TestRelativeMagnitudes(t *testing.T) {
	times := map[string]float64{}
	for _, name := range Names() {
		times[name] = runBench(t, name, ClassS, 4).Seconds()
	}
	t.Logf("class S times: %v", times)
	if times["EP"] < times["IS"] {
		t.Fatalf("EP (%v) should exceed IS (%v) at class S", times["EP"], times["IS"])
	}
}
