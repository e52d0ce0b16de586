package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/lint"
)

// TestViolationFailsTheRun checks the CI contract end to end: a scratch
// module with a wall-clock read in internal/engine yields a diagnostic
// with a module-relative path and a non-zero count.
func TestViolationFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	mustWrite(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

import "time"

// Now leaks the wall clock.
func Now() int64 { return time.Now().UnixNano() }
`)
	var out strings.Builder
	n, err := run(dir, "", false, "", &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 1 {
		t.Fatalf("got %d violations, want 1; output:\n%s", n, out.String())
	}
	got := out.String()
	want := filepath.Join("internal", "engine", "engine.go")
	if !strings.Contains(got, want) || !strings.Contains(got, "determinism") || !strings.Contains(got, "time.Now") {
		t.Errorf("diagnostic missing relative path, rule or call:\n%s", got)
	}
}

// TestJSONOutput pins the machine-readable format: one JSON object per
// line with rule, file, line, col and message fields.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	mustWrite(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

import "time"

// Now leaks the wall clock.
func Now() int64 { return time.Now().UnixNano() }
`)
	var out strings.Builder
	n, err := run(dir, "", true, "", &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != n || n != 1 {
		t.Fatalf("want exactly %d JSON line(s), got %d:\n%s", n, len(lines), out.String())
	}
	var d jsonDiagnostic
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, lines[0])
	}
	if d.Rule != "determinism" {
		t.Errorf("rule = %q, want determinism", d.Rule)
	}
	if d.File != "internal/engine/engine.go" {
		t.Errorf("file = %q, want internal/engine/engine.go (slash-separated, module-relative)", d.File)
	}
	if d.Line != 6 || d.Col == 0 {
		t.Errorf("position = %d:%d, want line 6 and a non-zero column", d.Line, d.Col)
	}
	if !strings.Contains(d.Message, "time.Now") {
		t.Errorf("message %q does not name the violation", d.Message)
	}
}

// TestRuleSelection runs only the exhaustive rule over a module that
// violates determinism: nothing may be reported.
func TestRuleSelection(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	mustWrite(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

import "time"

// Now leaks the wall clock.
func Now() int64 { return time.Now().UnixNano() }
`)
	var out strings.Builder
	n, err := run(dir, "exhaustive", false, "", &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("exhaustive-only run reported %d violations:\n%s", n, out.String())
	}
	if _, err := run(dir, "nosuchrule", false, "", &out); err == nil {
		t.Error("unknown rule name did not error")
	} else if !strings.Contains(err.Error(), "nosuchrule") {
		t.Errorf("unknown-rule error %q does not name the rule", err)
	}
}

// TestSARIFOutput pins the code-scanning contract: -sarif writes a
// v2.1.0 document with the driver's rule metadata and one error-level
// result per diagnostic, located by a slash-separated module-relative
// URI under the %SRCROOT% base.
func TestSARIFOutput(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	mustWrite(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

import "time"

// Now leaks the wall clock.
func Now() int64 { return time.Now().UnixNano() }
`)
	sarifPath := filepath.Join(t.TempDir(), "findings.sarif")
	var out strings.Builder
	n, err := run(dir, "", false, sarifPath, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 1 {
		t.Fatalf("got %d violations, want 1:\n%s", n, out.String())
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("read SARIF: %v", err)
	}
	var doc sarifLog
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.Tool.Driver.Name != "adflint" {
		t.Errorf("driver name = %q, want adflint", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) == 0 {
		t.Error("driver rule metadata is empty")
	}
	if len(r.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(r.Results))
	}
	res := r.Results[0]
	if res.RuleID != "determinism" || res.Level != "error" {
		t.Errorf("result = %s/%s, want determinism/error", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/engine/engine.go" {
		t.Errorf("uri = %q, want internal/engine/engine.go", loc.ArtifactLocation.URI)
	}
	if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.ArtifactLocation.URIBaseID)
	}
	if loc.Region.StartLine != 6 {
		t.Errorf("startLine = %d, want 6", loc.Region.StartLine)
	}
}

// TestSARIFWrittenWhenClean: a clean tree still produces a report with
// an empty (not null) results array — that is how code scanning learns
// old findings are fixed.
func TestSARIFWrittenWhenClean(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	mustWrite(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

// Tick is harmless.
func Tick() {}
`)
	sarifPath := filepath.Join(t.TempDir(), "clean.sarif")
	var out strings.Builder
	n, err := run(dir, "", false, sarifPath, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Fatalf("got %d violations, want 0:\n%s", n, out.String())
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("read SARIF: %v", err)
	}
	if !strings.Contains(string(raw), `"results": []`) {
		t.Errorf("clean report must carry an empty results array:\n%s", raw)
	}
}

// TestExplain pins the -explain surface: every registered rule prints
// its name, summary, and non-empty long-form text; an unknown rule
// errors by name.
func TestExplain(t *testing.T) {
	for _, a := range lint.All() {
		var out strings.Builder
		if err := explainRule(&out, a.Name); err != nil {
			t.Fatalf("explainRule(%s): %v", a.Name, err)
		}
		got := out.String()
		if !strings.HasPrefix(got, a.Name+" — ") {
			t.Errorf("explain %s does not lead with the rule name:\n%s", a.Name, got)
		}
		if len(strings.TrimSpace(got)) <= len(a.Name)+len(a.Doc) {
			t.Errorf("explain %s has no long-form text beyond the summary:\n%s", a.Name, got)
		}
	}
	if err := explainRule(&strings.Builder{}, "nosuchrule"); err == nil {
		t.Error("unknown rule name did not error")
	} else if !strings.Contains(err.Error(), "nosuchrule") {
		t.Errorf("unknown-rule error %q does not name the rule", err)
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
