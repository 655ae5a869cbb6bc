package main

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
	"strings"
)

// loader parses and type-checks packages of one module using only the
// standard library: go/build resolves build-tag-filtered file sets,
// go/parser produces syntax, and go/types checks it. Imports within the
// module are loaded recursively from source; all other imports (the
// standard library) are delegated to the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	module  string // module path from go.mod
	rootDir string // directory containing go.mod
	std     types.Importer

	pkgs    map[string]*loadedPackage
	loading map[string]bool
}

// loadedPackage is one parsed and type-checked package.
type loadedPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// newLoader returns a loader for the module rooted at rootDir with the
// given module path. Extra build tags (e.g. sqdebug) widen the file set.
func newLoader(rootDir, module string, tags []string) *loader {
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.BuildTags = append(append([]string(nil), ctxt.BuildTags...), tags...)
	return &loader{
		fset:    fset,
		ctxt:    ctxt,
		module:  module,
		rootDir: rootDir,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*loadedPackage{},
		loading: map[string]bool{},
	}
}

// dirFor maps a module-local import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.rootDir
	}
	rel := strings.TrimPrefix(path, l.module+"/")
	return filepath.Join(l.rootDir, filepath.FromSlash(rel))
}

// local reports whether the import path belongs to the loaded module.
func (l *loader) local(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// load parses and type-checks the module-local package at the given import
// path, memoized.
func (l *loader) load(path string) (*loadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &loadedPackage{files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// moduleImporter adapts the loader to types.Importer: module-local paths
// load from source, everything else falls through to the stdlib source
// importer.
type moduleImporter loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*loader)(m)
	if l.local(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

// findModuleRoot walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModuleRoot(dir string) (rootDir, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves command-line package patterns to module-local
// import paths. Supported forms: "./..." (every package under the module
// root), "dir/..." (every package under dir), plain directories, and
// import paths within the module. testdata, vendor and hidden directories
// are skipped.
func expandPatterns(l *loader, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := walkPackages(l, l.rootDir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			dir := strings.TrimSuffix(pat, "/...")
			paths, err := walkPackages(l, filepath.Join(l.rootDir, filepath.FromSlash(dir)))
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			// A directory or an import path.
			path := pat
			if strings.HasPrefix(pat, "./") || pat == "." {
				abs, err := filepath.Abs(pat)
				if err != nil {
					return nil, err
				}
				rel, err := filepath.Rel(l.rootDir, abs)
				if err != nil {
					return nil, err
				}
				if rel == "." {
					path = l.module
				} else {
					path = l.module + "/" + filepath.ToSlash(rel)
				}
			}
			add(path)
		}
	}
	return out, nil
}

// walkPackages finds every buildable package directory under root.
func walkPackages(l *loader, root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here: not a package
		}
		rel, err := filepath.Rel(l.rootDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.module)
		} else {
			out = append(out, l.module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}
