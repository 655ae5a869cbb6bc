package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fixtureDiags lints the testdata module and returns its diagnostics.
func fixtureDiags(t *testing.T) []Diagnostic {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(dir, []string{"./..."}, nil)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	return diags
}

// render formats diagnostics the way the command does, with paths relative
// to the fixture module root.
func render(t *testing.T, diags []Diagnostic) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s:%d:%d: %s: %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return buf.String()
}

// TestGolden pins every diagnostic the fixture module produces: a true
// positive and a near miss for each chansend rule. Regenerate with:
//
//	SQLINT_UPDATE_GOLDEN=1 go test ./cmd/sqlint -run TestGolden
func TestGolden(t *testing.T) {
	got := render(t, fixtureDiags(t))
	goldenPath := filepath.Join("testdata", "golden.txt")
	if os.Getenv("SQLINT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (set SQLINT_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestEveryAnalyzerHasTruePositive guards the fixture itself: each
// registered analyzer must catch at least one planted bug, or a silently
// broken analyzer would pass the golden test with an empty section.
func TestEveryAnalyzerHasTruePositive(t *testing.T) {
	counts := map[string]int{}
	for _, d := range fixtureDiags(t) {
		counts[d.Analyzer]++
	}
	for _, a := range analyzers {
		if counts[a.Name] == 0 {
			t.Errorf("analyzer %s produced no findings on the fixture module", a.Name)
		}
	}
}

// TestCleanTree is the acceptance gate: the real module lints clean.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs (CI runs sqlint directly)")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(root, []string{"./..."}, nil)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}
