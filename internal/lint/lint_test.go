package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current analyzer output")

// fixtureScope selects which package-gated rule families see the
// fixture: sim (maporder, floatcmp), conc
// (goroleak), obsgate (obs gating discipline).
type fixtureScope struct {
	sim     bool
	conc    bool
	obsgate bool
}

// loadFixture lints one fixture package under testdata/src with the full
// analyzer set, scoped per the gating flags.
func loadFixture(t *testing.T, name string, scope fixtureScope) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	importPath := "fixtures/" + name
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	cfg := Config{}
	if scope.sim {
		cfg.SimPackages = []string{importPath}
	}
	if scope.conc {
		cfg.ConcurrentPackages = []string{importPath}
	}
	if scope.obsgate {
		cfg.ObsGatePackages = []string{importPath}
	}
	return Run([]*Package{pkg}, cfg)
}

// render formats diagnostics with base file names so the goldens are
// independent of the checkout location.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	}
	return b.String()
}

// TestGoldenFixtures asserts the exact diagnostics each fixture package
// produces, one golden file per analyzer fixture. Run with -update to
// regenerate after deliberate message or fixture changes.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		name  string
		scope fixtureScope
	}{
		{"determinism", fixtureScope{}},
		{"maporder", fixtureScope{sim: true}},
		{"exhaustive", fixtureScope{}},
		{"floatcmp", fixtureScope{sim: true}},
		{"streamowner", fixtureScope{}},
		{"lockorder", fixtureScope{}},
		{"goroleak", fixtureScope{conc: true}},
		{"obsgate", fixtureScope{obsgate: true}},
		{"allowaudit", fixtureScope{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := render(loadFixture(t, tc.name, tc.scope))
			goldenPath := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run `go test ./internal/lint -update` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestStreamOwnerDoublyOwned loads the two streamduo fixture packages
// into one run: each package's StreamOutage claim is fine alone, and
// only the module-wide view catches the cross-package double ownership.
func TestStreamOwnerDoublyOwned(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, half := range []string{"alpha", "beta"} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "streamduo", half), "fixtures/streamduo/"+half)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", half, err)
		}
		pkgs = append(pkgs, pkg)
	}
	got := render(Run(pkgs, Config{}))
	goldenPath := filepath.Join("testdata", "golden", "streamduo.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/lint -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestFixturesFlagNothingOutsideSimScope pins the package gating: loaded
// as an ordinary package, maporder stays quiet. The maporder fixture's
// one //adf:allow vouches for a diagnostic that only fires in sim scope,
// so the audit calls it stale here, once; nothing else may fire.
func TestFixturesFlagNothingOutsideSimScope(t *testing.T) {
	var stale int
	for _, d := range loadFixture(t, "maporder", fixtureScope{}) {
		if d.Rule == "allowaudit" && strings.HasPrefix(d.Message, "stale //adf:allow maporder:") {
			stale++
			continue
		}
		t.Errorf("maporder fixture flagged outside sim scope: %s", d)
	}
	if stale != 1 {
		t.Errorf("%d stale-allow findings on the maporder fixture, want its one //adf:allow", stale)
	}
}

// TestConcurrencyFixturesRespectScope pins the goroleak package gating:
// outside its declared scope the launch rule stays silent.
func TestConcurrencyFixturesRespectScope(t *testing.T) {
	for _, d := range loadFixture(t, "goroleak", fixtureScope{}) {
		if d.Rule == "goroleak" && strings.Contains(d.Message, "termination path") {
			t.Errorf("goroleak launch rule fired outside concurrent scope: %s", d)
		}
	}
}

// TestEveryRuleHasExplainText backs `adflint -explain`: each registered
// analyzer must ship long-form documentation.
func TestEveryRuleHasExplainText(t *testing.T) {
	for _, a := range All() {
		if strings.TrimSpace(a.Explain) == "" {
			t.Errorf("analyzer %q has no Explain text", a.Name)
		}
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %q has no Doc text", a.Name)
		}
	}
}

// TestModuleLintsClean runs the full analyzer set over the real module:
// the shipped tree must produce zero findings, so `make lint` can gate CI.
// It is the module's one full lint run in the test suite.
func TestModuleLintsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadModule found only %d packages; the walk is broken", len(pkgs))
	}
	for _, d := range Run(pkgs, Config{}) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestInjectedViolationIsCaught builds a scratch copy of the module
// layout with a time.Now() smuggled into internal/engine and checks the
// default configuration catches it — the acceptance scenario for CI.
func TestInjectedViolationIsCaught(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "internal", "engine", "engine.go"), `package engine

import "time"

// Tick leaks wall-clock time into simulation state.
func Tick() float64 { return float64(time.Now().UnixNano()) }
`)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(pkgs, Config{})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "determinism" || !strings.Contains(d.Message, "time.Now") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAllowSpanSemantics pins the line coverage of an //adf:allow
// entry: the whole comment group plus one line, so a trailing comment
// covers its own statement and an own-line comment (possibly inside a
// larger group) covers the statement below the group.
func TestAllowSpanSemantics(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	file := filepath.Join(dir, "internal", "engine", "engine.go")
	writeFile(t, file, `package engine

// A has an own-line allow: the comment line and the line after.
func A() int {
	//adf:allow determinism — span fixture
	return 1
}

// B buries the allow in a three-line group: every group line plus one
// is covered.
func B() int {
	// leading context line
	//adf:allow determinism — span fixture
	// trailing context line
	return 2
}

// C has a trailing allow: the statement's own line and the next.
func C() int {
	return 3 //adf:allow determinism — span fixture
}
`)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	allows := newAllowSet()
	for _, p := range pkgs {
		allows.indexPackage(p)
	}
	cases := []struct {
		line int
		want bool
	}{
		{4, false}, // func A line, above the comment
		{5, true},  // the allow comment itself
		{6, true},  // the statement after it
		{7, false}, // one past the span

		{11, false}, // func B line
		{12, true},  // leading group line
		{13, true},  // the allow line
		{14, true},  // trailing group line
		{15, true},  // statement after the group
		{16, false}, // closing brace

		{19, false}, // func C line
		{20, true},  // trailing comment covers its own statement
		{21, true},  // and the line after
		{22, false},
	}
	for _, tc := range cases {
		if got := allows.allowedAt(file, tc.line, "determinism"); got != tc.want {
			t.Errorf("allowedAt(line %d) = %v, want %v", tc.line, got, tc.want)
		}
	}
	// The wrong rule never matches, anywhere in the spans.
	for line := 1; line <= 22; line++ {
		if allows.allowedAt(file, line, "maporder") {
			t.Errorf("allowedAt(line %d, maporder) = true, want false", line)
		}
	}
}

// TestRuleNamesMatchAll keeps the static ruleNames list (needed to
// break an initialization cycle) in sync with the registered analyzers.
func TestRuleNamesMatchAll(t *testing.T) {
	all := All()
	if len(all) != len(ruleNames) {
		t.Fatalf("All() has %d analyzers, ruleNames has %d entries", len(all), len(ruleNames))
	}
	for i, a := range all {
		if a.Name != ruleNames[i] {
			t.Errorf("All()[%d].Name = %q, ruleNames[%d] = %q", i, a.Name, i, ruleNames[i])
		}
	}
}

func TestIsSimPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"github.com/mobilegrid/adf/internal/engine", true},
		{"github.com/mobilegrid/adf/internal/sim", true},
		{"github.com/mobilegrid/adf/internal/cluster", true},
		{"github.com/mobilegrid/adf/internal/gateway", true},
		{"github.com/mobilegrid/adf/internal/experiment", false},
		{"github.com/mobilegrid/adf/internal/hla", false},
		{"github.com/mobilegrid/adf/cmd/adfbench", false},
		{"github.com/mobilegrid/adf", false},
		// Segment anchoring: "myinternal/sim" must not match the
		// "internal/sim" suffix as a raw substring.
		{"example.com/myinternal/sim", false},
		{"example.com/myinternal/sim/x", false},
		{"internal/sim", true},
		{"github.com/mobilegrid/adf/internal/sim/shard", true},
	}
	for _, tc := range cases {
		if got := isSimPackage(tc.path, SimPackages); got != tc.want {
			t.Errorf("isSimPackage(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
