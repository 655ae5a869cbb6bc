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

// pathVisitor receives each enumerated path's label sequence. The slice is
// reused; implementations must not retain it. Returning false aborts the
// enumeration (budget exhausted).
type pathVisitor func(labels []graph.Label) bool

// enumeratePaths walks all simple paths of g with at most maxLen edges,
// invoking visit once per directed path instance (including single-vertex
// paths). It returns false if the visitor aborted.
func enumeratePaths(g *graph.Graph, maxLen int, visit pathVisitor) bool {
	n := g.NumVertices()
	onPath := make([]bool, n)
	labels := make([]graph.Label, 0, maxLen+1)
	var dfs func(v graph.VertexID) bool
	dfs = func(v graph.VertexID) bool {
		labels = append(labels, g.Label(v))
		onPath[v] = true
		ok := visit(labels)
		if ok && len(labels) <= maxLen {
			for _, w := range g.Neighbors(v) {
				if !onPath[w] {
					if !dfs(w) {
						ok = false
						break
					}
				}
			}
		}
		onPath[v] = false
		labels = labels[:len(labels)-1]
		return ok
	}
	for v := 0; v < n; v++ {
		if !dfs(graph.VertexID(v)) {
			return false
		}
	}
	return true
}

// pathKey encodes a label sequence as a compact string map key.
func pathKey(labels []graph.Label) string {
	buf := make([]byte, 0, len(labels)*4)
	for _, l := range labels {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(buf)
}

// keyLabels decodes a pathKey back into its label sequence, appended to
// labels.
func keyLabels(labels []graph.Label, key string) []graph.Label {
	for i := 0; i < len(key); i += 4 {
		labels = append(labels, graph.Label(uint32(key[i])|uint32(key[i+1])<<8|uint32(key[i+2])<<16|uint32(key[i+3])<<24))
	}
	return labels
}

// countPaths returns the number of occurrences of every path feature of g
// up to maxLen edges, keyed by pathKey.
func countPaths(g *graph.Graph, maxLen int) map[string]int32 {
	counts := make(map[string]int32)
	enumeratePaths(g, maxLen, func(labels []graph.Label) bool {
		counts[pathKey(labels)]++
		return true
	})
	return counts
}
