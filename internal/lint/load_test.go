package lint

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestGOROOTRecoveryUnderTrimpath simulates a binary built with
// -trimpath (make ci), where runtime.GOROOT() — and with it go/build's
// default — is empty: NewLoader must recover the toolchain root via
// `go env GOROOT` so the source importer can find the standard library.
func TestGOROOTRecoveryUnderTrimpath(t *testing.T) {
	orig := build.Default.GOROOT
	t.Cleanup(func() { build.Default.GOROOT = orig })
	build.Default.GOROOT = ""

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader with empty GOROOT: %v", err)
	}
	if build.Default.GOROOT == "" {
		t.Fatal("GOROOT was not recovered from the toolchain")
	}
	pkg, err := loader.Import("sort")
	if err != nil {
		t.Fatalf("stdlib import after GOROOT recovery: %v", err)
	}
	if pkg.Name() != "sort" {
		t.Errorf("imported package %q, want sort", pkg.Name())
	}
}

// TestCgoDisabledSourceImport: NewLoader forces CgoEnabled off so that
// cgo-capable standard-library packages type-check from their pure-Go
// variants instead of shelling out to the cgo tool.
func TestCgoDisabledSourceImport(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if build.Default.CgoEnabled {
		t.Fatal("NewLoader left CgoEnabled on; source imports of cgo packages would invoke the cgo tool")
	}
	pkg, err := loader.Import("os/user")
	if err != nil {
		t.Fatalf("source-importing the cgo-capable os/user: %v", err)
	}
	if scope := pkg.Scope(); scope.Lookup("Current") == nil {
		t.Error("os/user type-checked without its Current function")
	}
}

// TestParseErrorPackage: a module with a syntactically broken file must
// surface the parse error (with its position) instead of panicking or
// silently skipping the package.
func TestParseErrorPackage(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "internal", "engine", "engine.go"), "package engine\n\nfunc Tick( {\n")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	_, err = loader.LoadModule()
	if err == nil {
		t.Fatal("LoadModule succeeded on a module with a parse error")
	}
	if !strings.Contains(err.Error(), "engine.go") {
		t.Errorf("error %q does not name the broken file", err)
	}
}

// TestLoaderTagSelection pins the //go:build evaluation under the default
// tag set: a file gated on a tag and a //go:build ignore helper are
// excluded, a file gated on a negated tag is included.
func TestLoaderTagSelection(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module github.com/mobilegrid/adf\n\ngo 1.24\n")
	pkgDir := filepath.Join(dir, "internal", "engine")
	writeFile(t, filepath.Join(pkgDir, "engine.go"), "package engine\n\nfunc Neutral() {}\n")
	writeFile(t, filepath.Join(pkgDir, "tagged.go"), "//go:build sometag\n\npackage engine\n\nfunc Tagged() {}\n")
	writeFile(t, filepath.Join(pkgDir, "untagged.go"), "//go:build !sometag\n\npackage engine\n\nfunc Untagged() {}\n")
	writeFile(t, filepath.Join(pkgDir, "gen.go"), "//go:build ignore\n\npackage main\n\nfunc main() {}\n")

	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("LoadModule found %d packages, want 1", len(pkgs))
	}
	got := make(map[string]bool)
	for _, f := range pkgs[0].Files {
		got[filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename)] = true
	}
	for name, want := range map[string]bool{"engine.go": true, "untagged.go": true, "tagged.go": false, "gen.go": false} {
		if got[name] != want {
			t.Errorf("included %s = %v, want %v", name, got[name], want)
		}
	}
}
