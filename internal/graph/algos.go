package graph

// Structural utilities shared by the matching algorithms: connectivity,
// BFS spanning trees (used by CFL's candidate generation) and the 2-core
// (used by CFL's core-first matching order).

// IsConnected reports whether g is connected. The empty graph is connected.
func (g *Graph) IsConnected() bool {
	n := g.NumVertices()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]VertexID, 0, n)
	queue = append(queue, 0)
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

// BFSTree is a breadth-first spanning tree of a connected graph, the q_t
// structure CFL builds over the query graph (§III-B).
type BFSTree struct {
	Root     VertexID
	Parent   []int32      // Parent[v] = parent of v in the tree, -1 for root
	Depth    []int32      // Depth[v] = distance from root
	Order    []VertexID   // vertices in BFS visit order (level by level)
	Children [][]VertexID // tree children of each vertex
	Levels   [][]VertexID // Levels[d] = vertices at depth d
}

// NewBFSTree builds the BFS tree of g rooted at root. g must be connected;
// unreachable vertices would yield Parent=-1 with Depth=-1.
func NewBFSTree(g *Graph, root VertexID) *BFSTree {
	n := g.NumVertices()
	t := &BFSTree{
		Root:     root,
		Parent:   make([]int32, n),
		Depth:    make([]int32, n),
		Order:    make([]VertexID, 0, n),
		Children: make([][]VertexID, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	t.Depth[root] = 0
	queue := []VertexID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		t.Order = append(t.Order, v)
		d := t.Depth[v]
		for int(d) >= len(t.Levels) {
			t.Levels = append(t.Levels, nil)
		}
		t.Levels[d] = append(t.Levels[d], v)
		for _, w := range g.Neighbors(v) {
			if t.Depth[w] == -1 {
				t.Depth[w] = d + 1
				t.Parent[w] = int32(v)
				t.Children[v] = append(t.Children[v], w)
				queue = append(queue, w)
			}
		}
	}
	return t
}

// TwoCore returns a boolean mask marking the vertices in the 2-core of g:
// the maximal subgraph in which every vertex has degree at least 2. CFL
// prioritizes these "core structure" vertices in its matching order. Trees
// have an empty 2-core.
func (g *Graph) TwoCore() []bool {
	n := g.NumVertices()
	return g.TwoCoreInto(make([]bool, n), make([]int32, n), make([]VertexID, 0, n))
}

// TwoCoreInto is TwoCore on caller-owned storage: inCore and deg hold one
// entry per vertex, queue has room for as many (appending past its
// capacity allocates). It fills and returns inCore.
func (g *Graph) TwoCoreInto(inCore []bool, deg []int32, queue []VertexID) []bool {
	for v := range inCore {
		deg[v] = int32(g.Degree(VertexID(v)))
		inCore[v] = deg[v] >= 2
		if !inCore[v] {
			queue = append(queue, VertexID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range g.Neighbors(v) {
			if inCore[w] {
				deg[w]--
				if deg[w] < 2 {
					inCore[w] = false
					queue = append(queue, w)
				}
			}
		}
	}
	return inCore
}

// CoreSize returns the number of vertices in the 2-core of g.
func (g *Graph) CoreSize() int {
	core := g.TwoCore()
	n := 0
	for _, in := range core {
		if in {
			n++
		}
	}
	return n
}

// IsTree reports whether g is a connected acyclic graph; the paper's
// Table V reports the fraction of tree-shaped queries per query set.
func (g *Graph) IsTree() bool {
	return g.NumEdges() == g.NumVertices()-1 && g.IsConnected()
}
