package anlz

// load.go parses and type-checks packages from source, fully offline. The
// repo has no module dependencies (go.mod requires nothing), so every import
// is either module-internal — resolved against the module root on disk — or
// standard library, resolved through go/importer's source importer, which
// type-checks GOROOT sources without compiled export data. Test harnesses
// can additionally register GOPATH-style source roots (testdata/src layouts)
// whose single-segment import paths resolve to fixture packages.

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

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("gatewords/internal/core", or a fixture path
	// like "mapdet_pos" under a registered source root).
	Path string
	// Dir is the absolute directory the files came from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects go/types errors. Checking continues past them, so
	// analyzers still see the (partial) Info, but the multichecker treats a
	// module package that fails to type-check as a hard error.
	TypeErrors []error
}

// FuncSource locates a module function's syntax for cross-package analysis:
// the declaration plus the package whose Info type-checked its body.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Loader loads packages and memoizes them by directory. It is not
// goroutine-safe; gatevet and the tests drive it from one goroutine.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer
	byDir      map[string]*Package
	loading    map[string]bool
	srcRoots   []string
	funcs      map[*types.Func]FuncSource
}

// NewLoader returns a loader rooted at the module containing dir (the
// nearest parent with a go.mod). Cgo is disabled on the shared build context
// so standard-library packages with cgo variants (net, os/user) resolve to
// their pure-Go fallbacks — the source importer cannot preprocess cgo files
// offline.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		byDir:      make(map[string]*Package),
		loading:    make(map[string]bool),
		funcs:      make(map[*types.Func]FuncSource),
	}, nil
}

// ModulePath returns the module's import path (the go.mod module line).
func (l *Loader) ModulePath() string { return l.modulePath }

// AddSourceRoot registers a GOPATH-style source root (a testdata/src
// directory): import path "x" resolves to <root>/x. Later roots win over
// earlier ones for the same path.
func (l *Loader) AddSourceRoot(root string) {
	l.srcRoots = append([]string{root}, l.srcRoots...)
}

// FuncSource returns the syntax of a module function, if the loader has
// type-checked the package declaring it. Functions without bodies (external
// or interface methods) and non-module functions return ok=false.
func (l *Loader) FuncSource(fn *types.Func) (FuncSource, bool) {
	src, ok := l.funcs[fn]
	return src, ok
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if after, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(after), nil
				}
			}
			return "", "", fmt.Errorf("anlz: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("anlz: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadModule loads every non-test package of the module: each directory under
// the root holding .go files, skipping testdata, hidden, and VCS directories.
// Packages come back sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if gf, _ := goFiles(path); len(gf) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads the single package in dir under the given import path (used
// by the analysistest harness for fixture packages).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, path)
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// goFiles lists the non-test .go files of dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.byDir[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("anlz: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("anlz: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// A directory is one package; ignore stray files with a different
		// package clause (the go tool would reject them anyway).
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}

	pkg := &Package{Path: path, Dir: dir, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) { return l.resolveImport(p) }),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	l.byDir[dir] = pkg
	l.indexFuncs(pkg)
	return pkg, nil
}

// indexFuncs records every declared function body for cross-package lookup.
func (l *Loader) indexFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				l.funcs[fn] = FuncSource{Decl: fd, Pkg: pkg}
			}
		}
	}
}

// resolveImport answers one import during type checking: module-internal
// paths from the module tree, registered source roots for fixtures, and the
// standard library through the source importer.
func (l *Loader) resolveImport(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		dir := l.moduleRoot
		if path != l.modulePath {
			dir = filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	for _, root := range l.srcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if names, err := goFiles(dir); err == nil && len(names) > 0 {
			pkg, err := l.loadDir(dir, path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
