package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/cli"
	"hybridcap/internal/experiments"
)

// parsePoint binds point mode's flags on a fresh flag set and parses
// args, as main does on the command line.
func parsePoint(t *testing.T, args ...string) *pointFlags {
	t.Helper()
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	pf := bindPoint(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return pf
}

// TestPointMatchesScenarioFile proves point mode is the scenario path:
// the point's scenario, written as JSON and run as a scenario file,
// reports byte-identically to the point mode's scenario section.
func TestPointMatchesScenarioFile(t *testing.T) {
	pf := parsePoint(t, "-n", "256", "-alpha", "0.4", "-K", "0.8", "-placement", "grid",
		"-bs-outage", "0.5", "-fault-seed", "7")
	sc, err := pf.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Sizes) != 1 || sc.Sizes[0] != 256 || sc.Seeds != 1 || sc.Faults == nil || sc.Faults.Seed != 7 {
		t.Fatalf("point scenario %+v", sc)
	}
	data, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "point.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := &cli.Common{Seeds: 2, Workers: 2, FrozenClock: true}

	file, err := runScenarioFile(context.Background(), path, "", c)
	if err != nil {
		t.Fatal(err)
	}
	point, err := runPoint(context.Background(), pf, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := header(pf.p) + file; point != want {
		t.Errorf("point report differs from its scenario file's:\n--- want\n%s\n--- got\n%s", want, point)
	}
	if !strings.Contains(file, "seeds-ok=2/2") {
		t.Errorf("report does not average -seeds 2:\n%s", file)
	}
}

// TestPointSchemes pins -scheme: best is the applicable set, a name is
// itself.
func TestPointSchemes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-K", "0.8"}, "schemeA twoHop schemeB schemeC"},
		{[]string{"-K", "-1"}, "schemeA twoHop"},
		{[]string{"-scheme", "schemeB"}, "schemeB"},
	} {
		sc, err := parsePoint(t, tc.args...).scenario()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := strings.Join(sc.Schemes, " "); got != tc.want {
			t.Errorf("%v: schemes %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestPointRejectsBadFlags proves every invalid point fails validation
// before the header prints or any cell runs.
func TestPointRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alpha", "1.5"}, "Alpha"},
		{[]string{"-placement", "hex"}, "placement"},
		{[]string{"-bs-outage", "1.5"}, "BS outage"},
		{[]string{"-scheme", "nope"}, "unknown scheme"},
	} {
		out, err := runPoint(context.Background(), parsePoint(t, tc.args...), &cli.Common{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want one naming %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: reported before failing:\n%s", tc.args, out)
		}
	}
}

// TestShardMergesThroughCellCache drives -shard as CI's shard smoke
// does: without -cell-cache a shard fails before anything prints; with
// one, the unsharded run over the shards' cache reports exactly what a
// run without a cache reports.
func TestShardMergesThroughCellCache(t *testing.T) {
	const sc = "../../examples/scenarios/strong-mobility.json"
	ctx := context.Background()
	c := &cli.Common{Quick: true, Seeds: 2, Workers: 2}
	out, err := runScenarioFile(ctx, sc, "0/3", c)
	if !errors.Is(err, experiments.ErrShardNoCache) || out != "" {
		t.Fatalf("-shard 0/3 without -cell-cache: err %v, report %q; want ErrShardNoCache and no report", err, out)
	}
	want, err := runScenarioFile(ctx, sc, "", c)
	if err != nil {
		t.Fatal(err)
	}
	c.CellCache = t.TempDir()
	for _, shard := range []string{"0/3", "1/3", "2/3"} {
		out, err := runScenarioFile(ctx, sc, shard, c)
		if err != nil {
			t.Fatalf("-shard %s: %v", shard, err)
		}
		if !strings.Contains(out, "shard "+shard+": cells [") {
			t.Errorf("-shard %s report has no shard row:\n%s", shard, out)
		}
	}
	if got, err := runScenarioFile(ctx, sc, "", c); err != nil || got != want {
		t.Errorf("unsharded run over the shards' cache (err %v):\n--- want\n%s\n--- got\n%s", err, want, got)
	}
}
