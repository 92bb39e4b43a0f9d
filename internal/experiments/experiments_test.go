package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seeds: 1} }

// Every registered experiment must run in quick mode and produce rows
// and series.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still cost seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(quick())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID %q, want %q", res.ID, e.ID)
			}
			if len(res.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if res.Description == "" {
				t.Errorf("%s has no description", e.ID)
			}
		})
	}
}

// A pre-canceled context must fail every experiment that runs a grid
// with an error wrapping context.Canceled, never a report rendered from
// cells that did not run. F2 and E11 run no grid.
func TestExperimentsFailWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	noGrid := map[string]bool{"F2": true, "E11": true}
	for _, e := range All() {
		if noGrid[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			o := quick()
			o.Ctx = ctx
			if _, err := e.Run(o); !errors.Is(err, context.Canceled) {
				t.Errorf("%s under a canceled context returned %v, want context.Canceled", e.ID, err)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("T1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigure3Boundary(t *testing.T) {
	res, err := Figure3Left(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || res.Series[0].Len() == 0 {
		t.Fatal("no boundary series")
	}
	// Left panel (phi >= 0): boundary K = 1 - alpha.
	s := res.Series[0]
	for i := range s.X {
		if diff := s.Y[i] - (1 - s.X[i]); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("boundary at alpha=%v is %v, want %v", s.X[i], s.Y[i], 1-s.X[i])
		}
	}
	right, err := Figure3Right(quick())
	if err != nil {
		t.Fatal(err)
	}
	rs := right.Series[0]
	// Right panel (phi = -1/2): boundary K = 1.5 - alpha.
	for i := range rs.X {
		if diff := rs.Y[i] - (1.5 - rs.X[i]); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("right boundary at alpha=%v is %v, want %v", rs.X[i], rs.Y[i], 1.5-rs.X[i])
		}
	}
}

func TestFigure1Contrast(t *testing.T) {
	res, err := Figure1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Ascii, "|") {
		t.Error("no heatmap rendered")
	}
	if len(res.Rows) < 2 {
		t.Fatal("expected two density rows")
	}
	if !strings.Contains(res.Rows[0], "non-uniformly") || !strings.Contains(res.Rows[1], "uniformly") {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestTable1QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep")
	}
	res, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Header plus five regime rows.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	if len(res.Fits) != 5 {
		t.Fatalf("fits = %d", len(res.Fits))
	}
	for name, fit := range res.Fits {
		if fit.Exponent >= 0.05 {
			t.Errorf("%s: capacity exponent %v should be negative", name, fit.Exponent)
		}
	}
}
