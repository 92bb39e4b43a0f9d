package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hybridcap/internal/blob"
	"hybridcap/internal/measure"
)

// Text renders the result as a human-readable report.
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Description)
	for _, row := range r.Rows {
		b.WriteString(row)
		b.WriteByte('\n')
	}
	// Map iteration order is randomized per process; sort the fit names
	// so the report is byte-identical across runs.
	names := make([]string, 0, len(r.Fits))
	for name := range r.Fits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fit := r.Fits[name]
		fmt.Fprintf(&b, "fit %-14s exponent %+0.3f +- %.3f (R2 %.3f, %d pts)\n",
			name, fit.Exponent, fit.StdErr, fit.R2, fit.N)
	}
	if r.Ascii != "" {
		b.WriteByte('\n')
		b.WriteString(r.Ascii)
		if !strings.HasSuffix(r.Ascii, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteFiles saves the result under dir: <id>.txt with the report,
// <id>.csv with the series (when the series share an x grid; otherwise
// one CSV per series), and <id>.manifest.json with the run manifest
// when the result carries one (scenario runs).
func (r *Result) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := blob.WriteFile(filepath.Join(dir, r.ID+".txt"), []byte(r.Text())); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if r.Manifest != nil {
		if err := r.Manifest.WriteFile(filepath.Join(dir, r.ID+".manifest.json")); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if len(r.Series) == 0 {
		return nil
	}
	if sameGrid(r.Series) {
		f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if err := measure.WriteCSV(f, r.XName, r.Series...); err != nil {
			_ = f.Close() // best-effort: the write error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		return nil
	}
	for i, s := range r.Series {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%d.csv", r.ID, i)))
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if err := measure.WriteCSV(f, r.XName, s); err != nil {
			_ = f.Close() // best-effort: the write error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

func sameGrid(series []*measure.Series) bool {
	for _, s := range series[1:] {
		if s.Len() != series[0].Len() {
			return false
		}
		for i := range s.X {
			if s.X[i] != series[0].X[i] {
				return false
			}
		}
	}
	return true
}
