package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression and object facts.
	Info *types.Info
}

// Loader parses and type-checks the module's packages without any
// dependency outside the standard library. Imports within the module are
// resolved recursively from source; standard-library imports go through
// go/importer's source importer (GOROOT/src). The module has no external
// dependencies, so nothing else is needed.
type Loader struct {
	// ModulePath is the module path from go.mod.
	ModulePath string
	// ModuleDir is the module root directory.
	ModuleDir string
	// Fset is shared across all packages loaded by this Loader.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory containing
// dir (dir itself or an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks standard-library packages from
	// GOROOT/src via go/build; with cgo enabled it would shell out to the
	// cgo tool for packages like net. The pure-Go variants type-check
	// identically for our purposes, so force them.
	build.Default.CgoEnabled = false
	// Binaries built with -trimpath (make ci) carry no embedded GOROOT,
	// so runtime.GOROOT() — go/build's default — comes back empty and the
	// source importer can't find the standard library. Recover it from
	// the toolchain, which is necessarily present to run this tool.
	if build.Default.GOROOT == "" {
		out, err := exec.Command("go", "env", "GOROOT").Output()
		if err != nil {
			return nil, fmt.Errorf("lint: GOROOT is unset and `go env GOROOT` failed: %v", err)
		}
		build.Default.GOROOT = strings.TrimSpace(string(out))
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  root,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found in or above %s", dir)
		}
		dir = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// Import implements types.Importer, routing module-internal paths to the
// recursive source loader and everything else to the standard-library
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == "C" {
		return nil, fmt.Errorf("lint: cgo is not supported")
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if i := strings.Index(path, "/"); (i < 0 && !strings.Contains(path, ".")) ||
		(i > 0 && !strings.Contains(path[:i], ".")) {
		// No dot in the first path element: a standard-library package.
		return l.std.Import(path)
	}
	return nil, fmt.Errorf("lint: external dependency %q is not supported (the module is dependency-free)", path)
}

// load parses and type-checks the package in dir, caching by import path.
func (l *Loader) load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory, skipping files
// excluded by a //go:build ignore constraint.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if l.fileExcluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// fileConstraint returns the file's //go:build expression, or nil when
// the file has none. Only comments before the package clause count.
func fileConstraint(f *ast.File) constraint.Expr {
	for _, group := range f.Comments {
		if group.Pos() >= f.Package {
			break
		}
		for _, c := range group.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr
		}
	}
	return nil
}

// fileExcluded reports whether a file's //go:build constraint rules it
// out under the default tag set, in which every tag evaluates false: a
// "//go:build ignore" helper is excluded, a file gated on a negated tag
// included.
func (l *Loader) fileExcluded(f *ast.File) bool {
	expr := fileConstraint(f)
	if expr == nil {
		return false
	}
	return !expr.Eval(func(string) bool { return false })
}

// LoadDir loads the single package in dir under a synthetic import path.
// Tests use it to load fixture packages that live outside the module's
// package tree.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.load(dir, importPath)
}

// LoadModule walks the module tree and loads every package, skipping
// testdata, vendor and hidden directories. Packages are returned in
// import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir &&
			(name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if hasGo {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true, nil
		}
	}
	return false, nil
}
