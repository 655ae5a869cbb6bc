package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// hotallocAnalyzer enforces the zero-allocation discipline of the query hot
// path: the per-data-graph loops of internal/core and the per-candidate /
// per-vertex loops of internal/matching run once per graph in the database
// (or once per candidate vertex), so any heap allocation inside them scales
// with database size and defeats the scratch-arena design. Inside a loop in
// a hot file the analyzer flags:
//
//   - make and new: per-iteration slice/map/pointer allocation — take the
//     buffer from the matching.Scratch arena (or hoist it) instead;
//   - the arena constructors NewCandidates and NewScratch: arenas exist to
//     be acquired once per query or per worker, never per graph;
//   - append onto a fresh slice (append(nil, ...), append([]T{...}, ...),
//     append([]T(nil), x...) clones): the backing array is reallocated
//     every iteration — append into a scratch-owned buffer (whose capacity
//     survives iterations) truncated with [:0] instead.
//
// Cold allocations that genuinely belong in a loop (error paths, one-time
// growth) are suppressed with a justified //sqlint:ignore hotalloc comment.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid per-iteration heap allocation (make/new/arena constructors/append into fresh slices) in hot-path loops",
	Applies: func(path string) bool {
		return pathMatchesAny(path, "internal/matching", "internal/core", "internal/telemetry", "internal/inflight", "internal/domain")
	},
	Run: runHotalloc,
}

// hotallocFiles names the files whose loops are the query hot path: the
// engine drivers that loop over data graphs (internal/core) and the filter,
// ordering and enumeration stages that loop over candidates
// (internal/matching). Other files in the same packages — index builders,
// one-shot setup, baselines outside the measured engines — may allocate in
// loops freely.
var hotallocFiles = map[string]bool{
	// internal/matching: per-candidate and per-vertex loops.
	"candidates.go": true,
	"matcher.go":    true,
	"cfl.go":        true,
	"graphql.go":    true,
	"enumerate.go":  true,
	"bipartite.go":  true,
	"scratch.go":    true,
	"matching.go":   true,
	"words.go":      true,
	// internal/core: the one per-data-graph loop every engine configuration
	// runs through (run.go: the executor, the fold and both per-graph
	// tests), and the result cache's per-entry loops (exact-hit chain,
	// containment probes) — one pooled Scratch per query or per worker,
	// never one per graph or per entry.
	"run.go":   true,
	"cache.go": true,
	// internal/telemetry: the per-query fast path — fingerprinting
	// (refinement loops over pooled buffers), event construction, the
	// sampling decision in Emit, and Profile.Record's eviction scan — must
	// stay allocation-free so telemetry never taxes the queries it
	// measures.
	"fingerprint.go": true,
	"event.go":       true,
	"export.go":      true,
	"profile.go":     true,
	// internal/domain: the bit-matrix candidate domains every filter's
	// per-vertex loops mutate — Add/Remove/Row run once per candidate
	// vertex, so the whole package is hot.
	"domain.go": true,
	"switch.go": true,
	// internal/inflight: the live-handle fast path — progress ticks land on
	// the handle's atomic counters from the enumeration loop, and the
	// registry's slot claim runs per query. Snapshotting (snapshot.go) is the
	// cold inspection path and may allocate freely.
	"handle.go": true,
}

// hotallocConstructors are the arena constructors that must never run per
// iteration: the whole point of the arena is one acquisition per query (or
// per worker), reused across every graph.
var hotallocConstructors = map[string]bool{
	"NewCandidates": true,
	"NewScratch":    true,
}

func runHotalloc(pass *Pass) {
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if !hotallocFiles[base] {
			continue
		}
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			if loopDepth(stack) == 0 {
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := builtinAllocName(pass.Info, call); name {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s inside a hot-path loop allocates per iteration; take the buffer from the Scratch arena or hoist it", name)
				return true
			case "append":
				if len(call.Args) > 0 && freshSliceExpr(call.Args[0]) {
					pass.Reportf(call.Pos(), "append onto a fresh slice reallocates its backing array per iteration; append into a scratch-owned buffer truncated with [:0]")
				}
				return true
			}
			if name := calleeName(call); hotallocConstructors[name] {
				pass.Reportf(call.Pos(), "%s inside a hot-path loop defeats the arena; acquire one Scratch per query or per worker and reuse it", name)
			}
			return true
		})
	}
}

// freshSliceExpr reports whether the expression denotes a slice that is
// created on the spot — a composite literal, a conversion like []T(nil), a
// make/new result, or the nil literal — so appending to it must allocate a
// new backing array.
func freshSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// Both conversions ([]T(x)) and allocation calls (make([]T, n))
		// produce a value with no reusable backing of its own.
		return true
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.ParenExpr:
		return freshSliceExpr(e.X)
	}
	return false
}

// builtinAllocName returns "make", "new" or "append" if call invokes that
// builtin (resolved through the type info, so shadowing doesn't confuse
// it), else "".
func builtinAllocName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return ""
	}
	switch name := b.Name(); name {
	case "make", "new", "append":
		return name
	default:
		return ""
	}
}

// calleeName returns the bare function name of a call: the selector name
// for qualified calls (matching.NewScratch), the identifier for local ones.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
