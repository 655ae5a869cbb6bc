package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFormatGitHub pins the workflow-command shape and its escaping: the
// message's % is escaped so GitHub doesn't mangle the annotation, and the
// title's / and message text survive.
func TestFormatGitHub(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "repo")
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "core", "run.go"), Line: 202, Column: 3},
			Analyzer: "chansend",
			Message:  "blocking send on jobs outside a select; 50% slower, see a:b",
		},
		{
			Pos:      token.Position{Filename: filepath.Join(root, "cmd", "sqserver", "main.go"), Line: 208, Column: 3},
			Analyzer: "chansend",
			Message:  "close(ch) closes a channel received as a parameter; only the sending/owning side may close a channel",
		},
	}
	var buf bytes.Buffer
	writeGitHub(&buf, root, diags)
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
