// Command sqlint runs this repository's project-specific static analyzer
// over the module — the one correctness rule generic `go vet` cannot know:
//
//	chansend  — blocking channel sends/receives on the serving paths need
//	            a select with a cancellation alternative or a buffered
//	            channel; close is called only by the owning side.
//
// The other concurrency and hot-path rules are checked elsewhere: by-value
// locks and typed atomics by `go vet` (copylocks), mixed plain/atomic access
// and unguarded map writes by `go test -race`, loop allocations by the
// testing.AllocsPerRun tests over the hot files (DESIGN.md lists them).
//
// Usage:
//
//	go run ./cmd/sqlint ./...
//	go run ./cmd/sqlint -tags sqdebug ./internal/... ./cmd/...
//	go run ./cmd/sqlint -format=github ./...
//
// Exit status: 0 clean, 1 findings, 2 load or internal error.
//
// The driver is standard-library only (go/ast, go/build, go/parser,
// go/types); module-local imports are type-checked from source through a
// custom importer, the standard library through importer.ForCompiler's
// source mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// analyzers is the registry, in output order.
var analyzers = []*Analyzer{
	chansendAnalyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("sqlint", flag.ContinueOnError)
	tags := fs.String("tags", "", "comma-separated extra build tags (e.g. sqdebug)")
	format := fs.String("format", "text", "output format: text, or github (CI annotations)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: sqlint [-tags tags] [-format f] packages...")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(os.Stderr, "sqlint: unknown -format=%s (want text or github)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlint:", err)
		return 2
	}
	diags, err := Lint(cwd, patterns, splitList(*tags))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlint:", err)
		return 2
	}
	if *format == "github" {
		writeGitHub(out, cwd, diags)
	} else {
		writeText(out, cwd, diags)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// Lint loads the packages matched by patterns under the module containing
// dir and returns the diagnostics, sorted by position. It is the testable
// core of the command.
func Lint(dir string, patterns, tags []string) ([]Diagnostic, error) {
	rootDir, module, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(rootDir, module, tags)
	paths, err := expandPatterns(l, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(path) {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     l.fset,
				Files:    p.files,
				Info:     p.info,
				diags:    &diags,
			})
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
