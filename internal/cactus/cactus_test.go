package cactus

import (
	"fmt"
	"strings"
	"testing"

	"microgrid/internal/mpi"
	"microgrid/internal/simcore"
	"microgrid/internal/virtual"
)

func runWaveToy(t *testing.T, n, edge, steps int) simcore.Duration {
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
	w, err := mpi.Launch(hosts, "wavetoy", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunWaveToy(c, Params{GridEdge: edge, Steps: steps})
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

func TestWaveToyRuns(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		if el := runWaveToy(t, n, 20, 10); el <= 0 {
			t.Fatalf("n=%d elapsed %v", n, el)
		}
	}
}

func TestWaveToyGridScaling(t *testing.T) {
	small := runWaveToy(t, 4, 20, 10)
	large := runWaveToy(t, 4, 40, 10)
	ratio := large.Seconds() / small.Seconds()
	// 8× the points; communication sublinear, so expect 4–9×.
	if ratio < 4 || ratio > 10 {
		t.Fatalf("40³/20³ time ratio = %.2f (small=%v large=%v)", ratio, small, large)
	}
}

func TestWaveToyProgressHook(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, err := virtual.NewLANGrid(eng, "vm", 2, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var norms []float64
	w, err := mpi.Launch([]*virtual.Host{g.Host("vm0"), g.Host("vm1")}, "wt", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunWaveToy(c, Params{GridEdge: 16, Steps: 20, Progress: func(rank, step int, v float64) {
			if rank == 0 && step%10 == 0 {
				norms = append(norms, v)
			}
		}})
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
	if len(norms) != 2 { // steps 10 and 20
		t.Fatalf("norms = %v", norms)
	}
	// Norm is the total point count: 16³ with the 2-rank split (8×16×16
	// blocks → 2048 points per rank × 2).
	if norms[0] != 4096 {
		t.Fatalf("norm = %v, want 4096", norms[0])
	}
}

func TestWaveToyValidation(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, _ := virtual.NewLANGrid(eng, "vm", 1, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	w, err := mpi.Launch([]*virtual.Host{g.Host("vm0")}, "bad", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunWaveToy(c, Params{GridEdge: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Err() == nil {
		t.Fatal("grid edge 1 accepted")
	}
}

func TestWaveToyOddDecomposition(t *testing.T) {
	// Grid edge that does not divide evenly across a non-power-of-two
	// rank count.
	if el := runWaveToy(t, 3, 17, 6); el <= 0 {
		t.Fatalf("elapsed %v", el)
	}
	if el := runWaveToy(t, 6, 25, 4); el <= 0 {
		t.Fatalf("elapsed %v", el)
	}
}

func TestWaveToyDefaultSteps(t *testing.T) {
	eng := simcore.NewEngine(1)
	g, _ := virtual.NewLANGrid(eng, "vm", 1, 533, 533, 100e6, 25*simcore.Microsecond, 0, true, 0)
	steps := 0
	w, err := mpi.Launch([]*virtual.Host{g.Host("vm0")}, "wt", 0, mpi.LaunchOptions{}, func(c *mpi.Comm) error {
		return RunWaveToy(c, Params{GridEdge: 8, Progress: func(_, step int, _ float64) {
			if step > steps {
				steps = step
			}
		}})
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
	if steps != 100 {
		t.Fatalf("default steps = %d, want 100", steps)
	}
}

func TestParseParFile(t *testing.T) {
	text := `
# WaveToy parameters
ActiveThorns = "wavetoy idscalarwave"
driver::global_nsize = 250
cactus::cctk_itlast  = 100
wavetoy::bound = "radiation"
`
	p, extra, err := ParseParFile(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.GridEdge != 250 || p.Steps != 100 {
		t.Fatalf("params = %+v", p)
	}
	if extra["wavetoy::bound"] != "radiation" || extra["activethorns"] != "wavetoy idscalarwave" {
		t.Fatalf("extra = %v", extra)
	}
}

func TestParseParFileErrors(t *testing.T) {
	for _, bad := range []string{
		"no equals here",
		"driver::global_nx = tiny",
		"driver::global_nx = 1",
		"cactus::cctk_itlast = 0\ndriver::global_nx = 50",
		"wavetoy::bound = none", // no grid size at all
	} {
		if _, _, err := ParseParFile(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseParFile(%q) accepted", bad)
		}
	}
}
