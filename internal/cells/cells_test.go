package cells

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func valid() *File {
	scenario := "{\n  \"name\": \"t\"\n}\n"
	sum := sha256.Sum256([]byte(scenario))
	return &File{
		Schema:         Schema,
		Name:           "t",
		ScenarioSHA256: hex.EncodeToString(sum[:]),
		Scenario:       scenario,
		Sizes:          []int{512, 1024},
		Seeds:          2,
		GridCells:      4,
		Cells: []Cell{
			{Index: 1, N: 512, Seed: 7, Value: 0.5},
			{Index: 2, N: 1024, Seed: 9, Err: "evaluate: broke"},
		},
	}
}

// Marshal -> Parse -> Marshal must be byte-identical (fixed struct
// tree, no maps), so cells files can be diffed and golden-tested.
func TestRoundTripDeterminism(t *testing.T) {
	first, err := valid().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip drifted:\n%s\nvs\n%s", first, second)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
		want   string
	}{
		{"schema", func(f *File) { f.Schema = 99 }, "schema"},
		{"hash", func(f *File) { f.Scenario = "{}\n" }, "hash"},
		{"grid", func(f *File) { f.GridCells = 5 }, "grid_cells"},
		{"index range", func(f *File) { f.Cells[1].Index = 4 }, "outside"},
		{"index order", func(f *File) { f.Cells[1].Index = 1 }, "ascending"},
		{"wrong n", func(f *File) { f.Cells[0].N = 1024 }, "want 512"},
	}
	for _, tc := range cases {
		f := valid()
		tc.mutate(f)
		err := f.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := Parse([]byte(`{"schema": 1, "bogus": true}`)); err == nil {
		t.Error("Parse accepted an unknown field")
	}
	data, err := valid().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, []byte(`{"schema": 1,`)...)
	if _, err := Parse(torn); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("Parse accepted a torn tail: %v", err)
	}
}

func TestSort(t *testing.T) {
	f := valid()
	f.Cells[0], f.Cells[1] = f.Cells[1], f.Cells[0]
	if err := f.Validate(); err == nil {
		t.Fatal("unsorted file validated")
	}
	f.Sort()
	if err := f.Validate(); err != nil {
		t.Fatalf("sorted file failed validation: %v", err)
	}
}
