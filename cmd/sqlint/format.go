package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Output formats. "text" is the human-readable default; "github" emits
// GitHub Actions workflow commands so findings surface as inline PR
// annotations in CI.

// relFindingPath renders a diagnostic's filename relative to root (the
// module root), falling back to the absolute path for files outside it.
func relFindingPath(root, filename string) string {
	if r, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(filename)
}

func writeText(w io.Writer, root string, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", relFindingPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "sqlint: %d finding(s)\n", len(diags))
	}
}

// writeGitHub emits one ::error workflow command per finding. GitHub
// parses these from stdout of any CI step and renders them as inline
// annotations on the PR diff.
func writeGitHub(w io.Writer, root string, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=%s::%s\n",
			githubEscapeProperty(relFindingPath(root, d.Pos.Filename)),
			d.Pos.Line, d.Pos.Column,
			githubEscapeProperty("sqlint/"+d.Analyzer),
			githubEscapeData(d.Message))
	}
}

// githubEscapeData escapes a workflow-command message value per the
// GitHub Actions toolkit rules.
func githubEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProperty escapes a workflow-command property value, which
// additionally reserves ':' and ','.
func githubEscapeProperty(s string) string {
	s = githubEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
