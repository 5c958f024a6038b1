package analysis

import (
	"encoding/json"
	"fmt"
	"path/filepath"
)

// SARIF 2.1.0 output, the interchange format GitHub code scanning
// ingests. Only the slice of the spec the upload endpoint requires is
// modeled: one run, the driver's rule table built from the analyzer
// suite, and one result per finding. Suppressed findings are included
// with an in-source suppression record — code scanning then shows them
// as dismissed instead of open, preserving the allow audit trail.

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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription sarifText     `json:"shortDescription"`
	DefaultConfig    sarifRuleConf `json:"defaultConfiguration"`
}

type sarifRuleConf struct {
	Level string `json:"level"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifText          `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
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
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// EncodeSARIF renders diags — CheckPackages output, suppressed
// findings included — as a SARIF 2.1.0 log, in the order given. The
// rule table comes from suite (every analyzer appears, found something
// or not, so code scanning can close previously-open alerts for clean
// rules). root anchors the artifact URIs: absolute finding paths are
// rewritten relative to it, with forward slashes, as %SRCROOT%-based
// URIs.
func EncodeSARIF(diags []Diagnostic, suite Suite, root string) ([]byte, error) {
	rules := make([]sarifRule, len(suite))
	index := make(map[string]int, len(suite))
	for i, a := range suite {
		rules[i] = sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
			DefaultConfig:    sarifRuleConf{Level: "error"},
		}
		index[a.Name] = i
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, known := index[d.Analyzer]
		if !known {
			continue // the checker's own "allow" diagnostics have no rule
		}
		line := d.Pos.Line
		if line < 1 {
			line = 1 // SARIF regions are 1-based; a diagnostic may lack a position
		}
		r := sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: sarifURI(root, d.Pos.Filename), URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: line, StartColumn: d.Pos.Column},
				},
			}},
		}
		if d.Suppressed {
			r.Suppressions = []sarifSuppression{{
				Kind:          "inSource",
				Justification: "//comtainer:allow " + d.Analyzer,
			}}
		}
		results = append(results, r)
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "comtainer-vet", Rules: rules}},
			Results: results,
		}},
	}
	b, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("analysis: encoding SARIF: %w", err)
	}
	return append(b, '\n'), nil
}

// sarifURI rewrites an absolute finding path as a slash-separated URI
// relative to root; paths outside root (or when root is empty) pass
// through slash-normalized.
func sarifURI(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) &&
			rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
