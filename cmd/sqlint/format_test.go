package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleDiags(root string) []Diagnostic {
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "core", "run.go"), Line: 202, Column: 3},
			Analyzer: "chansend",
			Message:  "blocking send on jobs outside a select; 50% slower, see a:b",
		},
		{
			Pos:      token.Position{Filename: filepath.Join(root, "cmd", "sqserver", "main.go"), Line: 208, Column: 3},
			Analyzer: "goroterm",
			Message:  "goroutine launched in main has no provable termination path",
		},
	}
}

// TestFormatJSONRoundTrip pins the -format=json schema: encoding the
// diagnostics and decoding them back must reproduce every field, and the
// envelope must carry the schema version and count.
func TestFormatJSONRoundTrip(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	diags := sampleDiags(root)
	var buf bytes.Buffer
	if err := writeJSON(&buf, root, diags); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var got jsonReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if got.Version != jsonSchemaVersion {
		t.Errorf("version = %q, want %q", got.Version, jsonSchemaVersion)
	}
	if got.Count != len(diags) || len(got.Findings) != len(diags) {
		t.Fatalf("count = %d, findings = %d, want %d", got.Count, len(got.Findings), len(diags))
	}
	for i, f := range got.Findings {
		d := diags[i]
		if f.Line != d.Pos.Line || f.Col != d.Pos.Column || f.Analyzer != d.Analyzer || f.Message != d.Message {
			t.Errorf("finding %d = %+v does not match %+v", i, f, d)
		}
		if strings.Contains(f.File, "\\") || strings.HasPrefix(f.File, "/") {
			t.Errorf("finding %d file %q is not root-relative slash form", i, f.File)
		}
	}
	if got.Findings[0].File != "internal/core/run.go" {
		t.Errorf("file = %q, want internal/core/run.go", got.Findings[0].File)
	}
}

// TestFormatGitHub pins the workflow-command shape and its escaping: the
// message's % is escaped so GitHub doesn't mangle the annotation, and the
// title's / and message text survive.
func TestFormatGitHub(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	var buf bytes.Buffer
	writeGitHub(&buf, root, sampleDiags(root))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 annotations, got %d:\n%s", len(lines), buf.String())
	}
	want := "::error file=internal/core/run.go,line=202,col=3,title=sqlint/chansend::blocking send on jobs outside a select; 50%25 slower, see a:b"
	if lines[0] != want {
		t.Errorf("annotation = %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "::error file=cmd/sqserver/main.go,line=208,") {
		t.Errorf("second annotation = %q", lines[1])
	}
}

// TestBaselineApply pins the baseline semantics: listed findings are
// tolerated by (path, analyzer, message) regardless of line number,
// multiplicity is a multiset, and unmatched entries come back stale.
func TestBaselineApply(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	diags := sampleDiags(root)
	base := map[string]int{
		baselineKey(root, diags[1]):      1,
		"gone.go: locks: fixed long ago": 1,
	}
	surviving, stale := applyBaseline(root, diags, base)
	if len(surviving) != 1 || surviving[0].Analyzer != "chansend" {
		t.Errorf("surviving = %+v, want only the chansend finding", surviving)
	}
	if len(stale) != 1 || stale[0] != "gone.go: locks: fixed long ago" {
		t.Errorf("stale = %v, want the fixed entry", stale)
	}
}

// TestBaselineParse covers the file format: comments and blanks skipped,
// duplicate lines counted.
func TestBaselineParse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.txt")
	content := "# header\n\na.go: locks: msg\na.go: locks: msg\nb.go: goroterm: other\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := parseBaseline(path)
	if err != nil {
		t.Fatalf("parseBaseline: %v", err)
	}
	if base["a.go: locks: msg"] != 2 || base["b.go: goroterm: other"] != 1 || len(base) != 2 {
		t.Errorf("base = %v", base)
	}
}
