package main

import (
	"bytes"
	"strings"
	"testing"

	"hybridcap/internal/analysis"
)

// fixture is a testdata package with known ctxflow findings; the driver
// tests run the real flag-to-report path over it in-process.
const fixture = "../../internal/analysis/testdata/src/ctxflow"

// TestListNamesSuite pins the advertised suite: all ten analyzers.
func TestListNamesSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1
	if want := len(analysis.Analyzers()); lines != want {
		t.Fatalf("-list printed %d analyzers, suite has %d", lines, want)
	}
	for _, name := range []string{
		"nondeterminism", "maporder", "nopanic", "floateq", "errdrop",
		"goroleak", "hotalloc", "ctxflow", "cachekey", "staleignore",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing %s", name)
		}
	}
}

// TestSARIFOutputValidates runs the driver end-to-end and schema-checks
// the -sarif output against the subset code-scanning upload requires.
func TestSARIFOutputValidates(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-analyzers", "ctxflow", "-sarif", fixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d (stderr %s); the fixture should have findings", code, errb.String())
	}
	if err := analysis.ValidateSARIF(out.Bytes()); err != nil {
		t.Fatalf("sarif output invalid: %v\n%s", err, out.String())
	}
	for _, want := range []string{`"2.1.0"`, `"hybridlint"`, `"ctxflow"`, "startLine"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sarif output missing %s", want)
		}
	}
}

// TestSARIFCleanRunValidates checks that a finding-free run still emits
// a schema-valid document (the rules stay listed, results are empty).
func TestSARIFCleanRunValidates(t *testing.T) {
	clean := "../../internal/analysis/testdata/src/floateq"
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "ctxflow", "-sarif", clean}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	if err := analysis.ValidateSARIF(out.Bytes()); err != nil {
		t.Fatalf("sarif output invalid: %v", err)
	}
	if !strings.Contains(out.String(), `"results": []`) {
		t.Errorf("clean run should have an empty results array:\n%s", out.String())
	}
}

// TestJSONOutputListsFindings runs the driver end-to-end with -json:
// the fixture's findings must appear in the versioned report and the
// exit code must say findings survived.
func TestJSONOutputListsFindings(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "ctxflow", "-json", fixture}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"analyzer": "ctxflow"`) {
		t.Fatalf("json report has no ctxflow findings:\n%s", out.String())
	}
}

// TestFlagErrors pins the usage exit code for bad invocations.
func TestFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-json", "-sarif", fixture},
		{"-analyzers", "nosuchcheck", fixture},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr %s)", args, code, errb.String())
		}
	}
}
