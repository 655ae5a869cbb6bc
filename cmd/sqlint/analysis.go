package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one project-specific static check. The driver runs every
// analyzer over every loaded package; analyzers decide for themselves
// (via their Applies hook) which import paths they care about.
type Analyzer struct {
	// Name is the short identifier used in diagnostics.
	Name string
	// Doc is a one-line description printed by -help.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given import path; nil means "all packages".
	Applies func(path string) bool
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathMatchesAny reports whether the import path contains one of the given
// fragments — the analyzers' package scoping test. Matching by fragment
// (not exact path) lets the golden-file testdata use a different module
// name while exercising the same rules.
func pathMatchesAny(path string, fragments ...string) bool {
	for _, f := range fragments {
		if strings.Contains(path, f) {
			return true
		}
	}
	return false
}
