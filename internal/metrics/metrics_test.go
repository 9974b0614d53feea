package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if sd := StdDev(xs); !almostEq(sd, 2, 1e-12) {
		t.Fatalf("sd = %v", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/single-sample cases wrong")
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{5, 10, 15}
	n := Normalize(xs)
	if m := Mean(n); !almostEq(m, 1, 1e-12) {
		t.Fatalf("normalized mean = %v", m)
	}
	if xs[0] != 5 {
		t.Fatal("Normalize mutated input")
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("all-zero normalize changed values")
	}
}

func TestPercentError(t *testing.T) {
	if e := PercentError(102, 100); !almostEq(e, 2, 1e-12) {
		t.Fatalf("e = %v", e)
	}
	if e := PercentError(98, 100); !almostEq(e, 2, 1e-12) {
		t.Fatalf("e = %v", e)
	}
	if e := PercentError(0, 0); e != 0 {
		t.Fatalf("0/0 = %v", e)
	}
	if e := PercentError(1, 0); !math.IsInf(e, 1) {
		t.Fatalf("x/0 = %v", e)
	}
}

func TestRMSPercentDiff(t *testing.T) {
	ref := []float64{10, 20, 30}
	meas := []float64{11, 20, 27} // +10%, 0%, -10%
	got, err := RMSPercentDiff(meas, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((100 + 0 + 100) / 3.0)
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("rms = %v, want %v", got, want)
	}
	if _, err := RMSPercentDiff([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Zero reference samples are skipped.
	got, err = RMSPercentDiff([]float64{5, 11}, []float64{0, 10})
	if err != nil || !almostEq(got, 10, 1e-9) {
		t.Fatalf("skip-zero rms = %v err=%v", got, err)
	}
}

func TestLinearFit(t *testing.T) {
	// Fig. 5 shape: allocated = limit - 1024.
	var x, y []float64
	for _, lim := range []float64{1024, 10240, 102400, 1048576} {
		x = append(x, lim)
		y = append(y, lim-1024)
	}
	slope, intercept, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(slope, 1, 1e-9) || !almostEq(intercept, -1024, 1e-6) {
		t.Fatalf("fit = %v x + %v", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig X", "bench", "physical", "mgrid", "err%")
	tb.AddRow("EP", 123.456, 125.0, 1.25)
	tb.AddRow("MG", 50, "n/a", 0.0)
	out := tb.String()
	for _, want := range []string{"Fig X", "bench", "123.456", "EP", "MG", "n/a"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow(`has "quotes"`, "with,comma")
	got := tb.CSV()
	want := "a,b\nplain,1.500\n\"has \"\"quotes\"\"\",\"with,comma\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// Property: normalization preserves relative proportions and produces
// mean 1 for any non-degenerate positive sample.
func TestPropertyNormalize(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		n := Normalize(xs)
		if !almostEq(Mean(n), 1, 1e-9) {
			return false
		}
		for i := 1; i < len(xs); i++ {
			if xs[i-1] != 0 && !almostEq(n[i]/n[i-1], xs[i]/xs[i-1], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSPercentDiff is zero iff traces agree on nonzero reference
// samples, and is symmetric under scaling both traces.
func TestPropertyRMSSelfZero(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r))
		}
		d, err := RMSPercentDiff(xs, xs)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
