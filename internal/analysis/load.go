package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadedPackage is one parsed and type-checked package, ready for analysis.
type LoadedPackage struct {
	Dir   string
	Path  string // import path (derived from the module path for repo dirs)
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without any external
// tooling: module-local imports are resolved against the module root, and
// everything else (the standard library) is type-checked from source via
// go/importer. Loaded packages are cached, so a Loader amortizes the
// standard-library cost across many Load calls.
type Loader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	modPath string
	modRoot string

	loaded  map[string]*LoadedPackage // by import path
	loading map[string]bool           // import cycle guard
}

// NewLoader creates a loader for the module whose go.mod is found in dir or
// one of its parents.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		loaded:  map[string]*LoadedPackage{},
		loading: map[string]bool{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	l.std = std
	return l, nil
}

// ModRoot returns the module root directory.
func (l *Loader) ModRoot() string { return l.modRoot }

// ModPath returns the module import path.
func (l *Loader) ModPath() string { return l.modPath }

// pathForDir derives the import path of a directory inside the module.
func (l *Loader) pathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modPath)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// Package names one package directory of the module.
type Package struct {
	Dir  string
	Path string // import path
}

// Packages expands "./..."-style patterns into the module's package
// directories, in directory order. It skips testdata, hidden and
// underscore-prefixed directories, and directories without non-test Go
// files.
func (l *Loader) Packages(patterns []string) ([]Package, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "" || pat == "." {
			pat = l.modRoot
		}
		root, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	var pkgs []Package
	for _, dir := range dirs {
		if !hasNonTestGo(dir) {
			continue
		}
		path, err := l.pathForDir(dir)
		if err != nil {
			continue
		}
		pkgs = append(pkgs, Package{Dir: dir, Path: path})
	}
	return pkgs, nil
}

// hasNonTestGo reports whether dir holds at least one non-test Go file.
func hasNonTestGo(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the package in dir (non-test files only).
func (l *Loader) Load(dir string) (*LoadedPackage, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path)
}

func (l *Loader) dirForPath(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

func (l *Loader) loadPath(path string) (*LoadedPackage, error) {
	if lp, ok := l.loaded[path]; ok {
		return lp, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirForPath(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Build-constraint filtering uses the default build context, so
	// tag-switched variant files (e.g. per-OS or per-tag implementations)
	// resolve the same way `go build` does instead of colliding as
	// redeclarations.
	ctx := build.Default
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, "_") || strings.HasPrefix(n, ".") {
			continue
		}
		if ok, err := ctx.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	lp := &LoadedPackage{Dir: dir, Path: path, Fset: l.fset, Files: files, Pkg: pkg, Info: info}
	l.loaded[path] = lp
	return lp, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths are loaded
// from the module tree, everything else is delegated to the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		lp, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
