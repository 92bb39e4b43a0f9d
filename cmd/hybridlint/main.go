// Command hybridlint runs the project-invariant analyzer suite
// (internal/analysis) over Go packages and exits nonzero if any
// diagnostic survives //lint:ignore suppression.
//
// Usage:
//
//	go run ./cmd/hybridlint ./...             # whole repo (the CI gate)
//	go run ./cmd/hybridlint ./internal/sim    # one package
//	go run ./cmd/hybridlint -analyzers errdrop,nopanic ./...
//	go run ./cmd/hybridlint -list             # describe the suite
//	go run ./cmd/hybridlint -json ./...       # machine-readable findings
//	go run ./cmd/hybridlint -sarif ./...      # SARIF 2.1.0 for CI upload
//
// -json emits the findings as a versioned JSON report. -sarif emits
// SARIF 2.1.0 for code-scanning upload. Known findings are silenced in
// the source with //lint:ignore, never in a side file.
//
// Each analyzer only runs on the packages it governs (see
// analysis.InScope); test files are exempt by design. The driver is
// stdlib-only: packages are type-checked against `go list -export`
// compiler export data, so no external analysis framework is required.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hybridcap/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the driver body, separated from main so tests can execute the
// full flag-to-report path in-process. It returns the exit code: 0
// clean, 1 findings, 2 usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON report")
	asSARIF := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	fs.Usage = func() {
		outf(stderr, "usage: hybridlint [-list] [-analyzers a,b] [-json|-sarif] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			outf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *asJSON && *asSARIF {
		outln(stderr, "hybridlint: -json and -sarif are mutually exclusive")
		return 2
	}

	suite, err := selectAnalyzers(*only)
	if err != nil {
		outln(stderr, "hybridlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		outln(stderr, "hybridlint:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			if !analysis.InScope(a.Name, pkg.Path) {
				continue
			}
			found, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				outln(stderr, "hybridlint:", err)
				return 2
			}
			diags = append(diags, found...)
		}
	}

	report := analysis.NewReport(".", diags)

	switch {
	case *asJSON:
		if err := report.EncodeJSON(stdout); err != nil {
			outln(stderr, "hybridlint:", err)
			return 2
		}
	case *asSARIF:
		if err := report.EncodeSARIF(stdout); err != nil {
			outln(stderr, "hybridlint:", err)
			return 2
		}
	default:
		for _, f := range report.Findings {
			outf(stdout, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if n := len(report.Findings); n > 0 {
		outf(stderr, "hybridlint: %d issue(s)\n", n)
		return 1
	}
	return 0
}

// outf and outln print to the driver's injected writers, explicitly
// discarding the write error: a broken stdout/stderr pipe has no better
// recovery than the exit code already conveys.
func outf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func outln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if only == "" {
		return all, nil
	}
	var suite []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		suite = append(suite, a)
	}
	return suite, nil
}
