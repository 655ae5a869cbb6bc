package index

import (
	"subgraphquery/internal/graph"
)

// Path feature enumeration shared by the path trie, GraphGrep and gIndex:
// all simple directed walks with 0..maxLen edges, identified by their label
// sequences. Both the query and the data graphs are enumerated identically,
// so per-feature
// occurrence counts compare soundly: a subgraph isomorphism maps each
// directed simple path of q to a distinct directed simple path of G with
// the same label sequence.

// pathStep receives one directed path instance as its last label and the
// cursor its prefix's call returned (the walk's root cursor for a
// single-vertex path), and returns the instance's own cursor. A cursor is
// whatever the caller keeps per label sequence — the path trie's is the
// node of that sequence, so an instance costs one child hop from its
// prefix's node instead of a walk from the root. Returning false aborts the
// walk (budget exhausted, or nothing left to learn).
type pathStep func(cur uint32, l graph.Label) (uint32, bool)

// pathWalk is one depth-first walk over the simple paths of g.
type pathWalk struct {
	g      *graph.Graph
	maxLen int
	onPath []bool
	step   pathStep
}

// walkPaths walks all simple paths of g with at most maxLen edges depth
// first, invoking step once per directed path instance (including
// single-vertex paths), a path always after its prefix. It returns false if
// step aborted. onPath is scratch for a caller that walks often: one false
// per vertex of g at least, handed back all false; nil allocates it.
func walkPaths(g *graph.Graph, maxLen int, onPath []bool, root uint32, step pathStep) bool {
	if onPath == nil {
		onPath = make([]bool, g.NumVertices())
	}
	w := pathWalk{g: g, maxLen: maxLen, onPath: onPath, step: step}
	for v := 0; v < g.NumVertices(); v++ {
		if !w.from(graph.VertexID(v), root, 0) {
			return false
		}
	}
	return true
}

// from extends the path that ends before v, edges long so far, by v.
func (w *pathWalk) from(v graph.VertexID, cur uint32, edges int) bool {
	cur, ok := w.step(cur, w.g.Label(v))
	if !ok {
		return false
	}
	if edges == w.maxLen {
		return true
	}
	w.onPath[v] = true
	for _, u := range w.g.Neighbors(v) {
		if !w.onPath[u] && !w.from(u, cur, edges+1) {
			ok = false
			break
		}
	}
	w.onPath[v] = false
	return ok
}

// pathVisitor receives each enumerated path's label sequence. The slice is
// reused; implementations must not retain it. Returning false aborts the
// enumeration (budget exhausted).
type pathVisitor func(labels []graph.Label) bool

// enumeratePaths is walkPaths for callers that want whole label sequences:
// the cursor is the prefix's length.
func enumeratePaths(g *graph.Graph, maxLen int, visit pathVisitor) bool {
	labels := make([]graph.Label, 0, maxLen+1)
	return walkPaths(g, maxLen, nil, 0, func(depth uint32, l graph.Label) (uint32, bool) {
		labels = append(labels[:depth], l)
		return depth + 1, visit(labels)
	})
}

// pathKey encodes a label sequence as a compact string map key.
func pathKey(labels []graph.Label) string {
	buf := make([]byte, 0, len(labels)*4)
	for _, l := range labels {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(buf)
}
