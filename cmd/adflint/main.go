// Command adflint runs the repository's static-analysis pass (see
// internal/lint). It walks the whole module, prints one file:line:col
// diagnostic per violation and exits 1 when anything is found, so
// `make ci` fails fast. `adflint -list` prints every rule with its
// one-line summary; `adflint -explain <rule>` prints one rule's
// semantics and annotation grammar.
//
// Usage:
//
//	adflint [-dir module-root] [-rules determinism,maporder,...]
//	        [-json] [-sarif findings.sarif] [-list] [-explain rule]
//
// -explain prints one rule's long-form documentation — semantics and
// annotation grammar — and exits.
//
// Files are selected as the default `go build` selects them. -json
// emits newline-delimited JSON, one object per finding, for editor and
// CI tooling.
// -sarif additionally writes a SARIF v2.1.0 report to the given path
// (written even when the tree is clean, so CI's code-scanning upload
// can resolve fixed findings); the exit status is unchanged.
//
// Violations that are deliberate (benchmark timing, the sanctioned worker
// pools) are silenced in the source with an //adf:allow <rule> comment;
// the tree is expected to lint clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/mobilegrid/adf/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "directory inside the module to lint (the module root is found via go.mod)")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit newline-delimited JSON diagnostics instead of text")
	sarifPath := flag.String("sarif", "", "also write a SARIF v2.1.0 report to this path (written even when clean)")
	list := flag.Bool("list", false, "list the available rules and exit")
	explain := flag.String("explain", "", "print one rule's documentation and annotation grammar, then exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *explain != "" {
		if err := explainRule(os.Stdout, *explain); err != nil {
			fmt.Fprintln(os.Stderr, "adflint:", err)
			os.Exit(2)
		}
		return
	}
	n, err := run(*dir, *rules, *jsonOut, *sarifPath, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adflint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "adflint: %d violation(s)\n", n)
		os.Exit(1)
	}
}

// explainRule prints one rule's summary line and long-form Explain text.
func explainRule(out io.Writer, name string) error {
	for _, a := range lint.All() {
		if a.Name != name {
			continue
		}
		fmt.Fprintf(out, "%s — %s\n\n%s\n", a.Name, a.Doc, strings.TrimSpace(a.Explain))
		return nil
	}
	return fmt.Errorf("unknown rule %q (try -list)", name)
}

// jsonDiagnostic is the machine-readable shape of one finding.
type jsonDiagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// run lints the module containing dir, writing diagnostics (with paths
// relative to the module root) to out, and returns how many there were.
// When sarifPath is non-empty a SARIF report is also written there.
func run(dir, rules string, jsonOut bool, sarifPath string, out io.Writer) (int, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return 0, err
	}
	cfg := lint.Config{}
	if rules != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range lint.All() {
			byName[a.Name] = a
		}
		for _, name := range strings.Split(rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return 0, fmt.Errorf("unknown rule %q (try -list)", name)
			}
			cfg.Analyzers = append(cfg.Analyzers, a)
		}
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return 0, err
	}
	diags := lint.Run(pkgs, cfg)
	// Rewrite paths relative to the module root once, up front: the
	// text, JSON and SARIF renderings all want repo-relative locations.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleDir, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}
	if sarifPath != "" {
		f, err := os.Create(sarifPath)
		if err != nil {
			return len(diags), err
		}
		if err := writeSARIF(f, diags); err != nil {
			f.Close()
			return len(diags), err
		}
		if err := f.Close(); err != nil {
			return len(diags), err
		}
	}
	enc := json.NewEncoder(out)
	for _, d := range diags {
		if jsonOut {
			if err := enc.Encode(jsonDiagnostic{
				Rule:    d.Rule,
				File:    filepath.ToSlash(d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Message: d.Message,
			}); err != nil {
				return len(diags), err
			}
			continue
		}
		fmt.Fprintln(out, d)
	}
	return len(diags), nil
}
