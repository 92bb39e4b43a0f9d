// Package measure provides the statistics used by the benchmark
// harness: log-log regression for scaling-exponent fits, seed
// aggregation, and CSV emission of data series.
package measure

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Fit is a least-squares fit of log(y) = E*log(x) + b.
type Fit struct {
	// Exponent is the fitted slope E: y ~ x^E.
	Exponent float64
	// Intercept is b (natural log scale).
	Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// StdErr is the standard error of the slope.
	StdErr float64
	// N is the number of points used.
	N int
}

// FitPowerLaw fits y ~ x^E over positive points; non-positive points
// are skipped. At least three valid points are required.
func FitPowerLaw(xs, ys []float64) (*Fit, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("measure: mismatched series lengths %d and %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if len(lx) < 3 {
		return nil, fmt.Errorf("measure: need at least 3 positive points, have %d", len(lx))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
		syy += ly[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) <= 1e-9*(math.Abs(sxx)+1) {
		return nil, fmt.Errorf("measure: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// Residuals.
	var ssRes, ssTot float64
	meanY := sy / n
	for i := range lx {
		pred := slope*lx[i] + intercept
		ssRes += (ly[i] - pred) * (ly[i] - pred)
		ssTot += (ly[i] - meanY) * (ly[i] - meanY)
	}
	fit := &Fit{Exponent: slope, Intercept: intercept, N: len(lx)}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	if len(lx) > 2 {
		fit.StdErr = math.Sqrt(ssRes / (n - 2) / (sxx - sx*sx/n))
	}
	return fit, nil
}

// Series is a named sequence of (x, y) points, the unit the figure
// generators emit.
type Series struct {
	Name string
	X, Y []float64
	// OK and Attempts record, per point, how many instance evaluations
	// succeeded and how many were tried; a sweep that tolerates
	// per-seed failures reports partial coverage here.
	OK, Attempts []int
}

// Add appends one point backed by a single successful evaluation.
func (s *Series) Add(x, y float64) {
	s.AddCounted(x, y, 1, 1)
}

// AddCounted appends one point together with its evaluation coverage:
// ok of attempts instance evaluations succeeded and contributed to y.
func (s *Series) AddCounted(x, y float64, ok, attempts int) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.OK = append(s.OK, ok)
	s.Attempts = append(s.Attempts, attempts)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Fit runs FitPowerLaw over the series.
func (s *Series) Fit() (*Fit, error) { return FitPowerLaw(s.X, s.Y) }

// WriteCSV emits one or more series sharing an x column. All series
// must have equal length; the header is x followed by series names.
func WriteCSV(w io.Writer, xName string, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("measure: no series")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("measure: series %q has %d points, want %d", s.Name, s.Len(), n)
		}
	}
	var b strings.Builder
	b.WriteString(csvEscape(xName))
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		b.WriteString(strconv.FormatFloat(series[0].X[i], 'g', -1, 64))
		for _, s := range series {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.Y[i], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
