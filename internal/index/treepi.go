package index

import "subgraphquery/internal/graph"

// NewTreePi returns a mining-based tree-feature index in the spirit of
// TreePi (Zhang, Hu and Yang [40]) and SwiftIndex [28] from the paper's
// Table II: the frequent subtrees of up to treePiMaxEdges edges, by AHU
// canonical code.
func NewTreePi() *Mined {
	return &Mined{support: defaultSupportRatio, miner: miner{
		name: "TreePi",
		enumerate: func(g *graph.Graph, visit func(code string) bool) bool {
			return enumerateTreeCodes(g, treePiMaxEdges, visit)
		},
		anchor: isSingleVertexCode,
	}}
}

// treePiMaxEdges bounds TreePi's features: tree enumeration is markedly
// costlier than path enumeration — the mining-based trade the paper's §II-B
// describes.
const treePiMaxEdges = 3

// isSingleVertexCode recognizes the code of a one-vertex tree ("T" + one
// base-36 label, no parentheses).
func isSingleVertexCode(code string) bool {
	return len(code) >= 2 && code[0] == 'T' && code[1] != '('
}
