package measure

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFitPowerLawExact(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{10, 100, 1000, 10000} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, -0.5))
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-(-0.5)) > 1e-9 {
		t.Errorf("Exponent = %v", fit.Exponent)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %v", fit.R2)
	}
	if math.Abs(fit.Intercept-math.Log(3)) > 1e-9 {
		t.Errorf("Intercept = %v", fit.Intercept)
	}
	if fit.N != 4 {
		t.Errorf("N = %d", fit.N)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		x := math.Pow(10, 1+rng.Float64()*4)
		xs = append(xs, x)
		ys = append(ys, 2*math.Pow(x, 0.75)*math.Exp(rng.NormFloat64()*0.05))
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-0.75) > 0.03 {
		t.Errorf("Exponent = %v, want ~0.75", fit.Exponent)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v", fit.R2)
	}
	if fit.StdErr <= 0 || fit.StdErr > 0.05 {
		t.Errorf("StdErr = %v", fit.StdErr)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	fit, err := FitPowerLaw([]float64{1, 2, 0, 4, 8}, []float64{1, 2, 5, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 4 {
		t.Errorf("N = %d, want 4", fit.N)
	}
	if math.Abs(fit.Exponent-1) > 1e-9 {
		t.Errorf("Exponent = %v", fit.Exponent)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too few points accepted")
	}
	if _, err := FitPowerLaw([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestSeriesAndCSV(t *testing.T) {
	a := &Series{Name: "lambda"}
	b := &Series{Name: "theory,funny"}
	for i := 1; i <= 3; i++ {
		a.Add(float64(i), float64(i*i))
		b.Add(float64(i), float64(2*i))
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, "n", a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "n,lambda,\"theory,funny\"\n1,1,2\n2,4,4\n3,9,6\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, "x"); err == nil {
		t.Error("no series accepted")
	}
	a := &Series{Name: "a"}
	a.Add(1, 1)
	b := &Series{Name: "b"}
	if err := WriteCSV(&sb, "x", a, b); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestSeriesFit(t *testing.T) {
	s := &Series{Name: "s"}
	for _, x := range []float64{1, 10, 100} {
		s.Add(x, 5*x)
	}
	fit, err := s.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-1) > 1e-9 {
		t.Errorf("Exponent = %v", fit.Exponent)
	}
}
