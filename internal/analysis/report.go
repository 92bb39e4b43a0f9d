package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// ReportVersion identifies the machine-readable report format; bump it
// when Finding gains or changes fields so downstream tooling can tell.
const ReportVersion = 1

// A Finding is one diagnostic in machine-readable form. File is
// repo-relative and slash-separated so reports are comparable across
// checkouts and operating systems.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// A Report is the result of one hybridlint run, as `hybridlint -json`
// writes it.
type Report struct {
	Version  int       `json:"version"`
	Findings []Finding `json:"findings"`
}

// NewReport converts diagnostics into a report, relativizing file paths
// against root (the directory the driver ran in). Paths that do not sit
// under root are kept as-is.
func NewReport(root string, diags []Diagnostic) *Report {
	r := &Report{Version: ReportVersion, Findings: []Finding{}}
	for _, d := range diags {
		r.Findings = append(r.Findings, Finding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return r
}

func relPath(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(abs, file)
	if err != nil || rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}

// EncodeJSON writes the report as indented JSON. The encoding is
// deterministic: findings keep RunAnalyzer's position order and the
// struct field order is fixed.
func (r *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SARIF rendering: the minimal static-analysis interchange subset that
// GitHub code scanning ingests (SARIF 2.1.0 — tool driver with rules,
// results with ruleId/level/message/physical location).

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// EncodeSARIF writes the report as SARIF 2.1.0. Every suite analyzer is
// listed as a rule (so a clean run still documents what was checked);
// each finding becomes an error-level result.
func (r *Report) EncodeSARIF(w io.Writer) error {
	driver := sarifDriver{Name: "hybridlint"}
	for _, a := range Analyzers() {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: []sarifResult{}}
	for _, f := range r.Findings {
		run.Results = append(run.Results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// ValidateSARIF structurally checks a SARIF document against the subset
// EncodeSARIF emits and upload endpoints require: version 2.1.0, at
// least one run with a named tool driver, every result carrying a
// ruleId declared in the driver's rules, a message, and at least one
// physical location with a URI and a positive start line.
func ValidateSARIF(data []byte) error {
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		return fmt.Errorf("sarif: %w", err)
	}
	if log.Version != "2.1.0" {
		return fmt.Errorf("sarif: version %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) == 0 {
		return fmt.Errorf("sarif: no runs")
	}
	for ri, run := range log.Runs {
		if run.Tool.Driver.Name == "" {
			return fmt.Errorf("sarif: run %d has no tool driver name", ri)
		}
		rules := make(map[string]bool, len(run.Tool.Driver.Rules))
		for i, rule := range run.Tool.Driver.Rules {
			if rule.ID == "" {
				return fmt.Errorf("sarif: run %d rule %d has no id", ri, i)
			}
			rules[rule.ID] = true
		}
		for i, res := range run.Results {
			if res.RuleID == "" || !rules[res.RuleID] {
				return fmt.Errorf("sarif: run %d result %d has undeclared ruleId %q", ri, i, res.RuleID)
			}
			if res.Message.Text == "" {
				return fmt.Errorf("sarif: run %d result %d has an empty message", ri, i)
			}
			if len(res.Locations) == 0 {
				return fmt.Errorf("sarif: run %d result %d has no locations", ri, i)
			}
			for j, loc := range res.Locations {
				if loc.PhysicalLocation.ArtifactLocation.URI == "" {
					return fmt.Errorf("sarif: run %d result %d location %d has no artifact URI", ri, i, j)
				}
				if loc.PhysicalLocation.Region.StartLine < 1 {
					return fmt.Errorf("sarif: run %d result %d location %d has no start line", ri, i, j)
				}
			}
		}
	}
	return nil
}
