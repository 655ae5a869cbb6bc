package gen

import (
	"fmt"
	"math/rand"

	"subgraphquery/internal/graph"
)

// Query generation (§IV-A "Query Sets"): queries are extracted from the
// data graphs so that every query has at least one answer. Three methods:
//
//   - QueryRandomWalk (sparse, Q_iS): select a random data graph and start
//     vertex, perform a random walk adding visited edges and vertices until
//     the desired number of edges is reached.
//   - QueryBFS (dense, Q_iD): as above, but breadth-first — whenever a new
//     vertex is visited, add the vertex and all its edges to already
//     visited vertices.
//   - QueryInduced (dense, Q_iI): grow a vertex set breadth-first and take
//     the full vertex-induced subgraph — the densest extraction possible on
//     a given vertex set, maximizing average degree and backward edges.

// QueryMethod selects a query generation strategy.
type QueryMethod int

// The two generation methods of the paper, plus the induced dense track.
const (
	QueryRandomWalk QueryMethod = iota // sparse: Q_iS
	QueryBFS                           // dense: Q_iD
	QueryInduced                       // dense, vertex-induced: Q_iI
)

// String returns the set-name suffix for the method ("S", "D" or "I"; the
// first two are the paper's).
func (m QueryMethod) String() string {
	switch m {
	case QueryRandomWalk:
		return "S"
	case QueryBFS:
		return "D"
	default:
		return "I"
	}
}

// QuerySetConfig parameterizes one query set. The paper generates, per
// dataset, eight sets — {4, 8, 16, 32} edges × {random walk, BFS} — of 100
// queries each.
type QuerySetConfig struct {
	Count  int // queries per set (paper: 100)
	Edges  int // edges per query
	Method QueryMethod
	Seed   int64
}

// Name returns the paper's label for the set, e.g. "Q8S" or "Q32D".
func (c QuerySetConfig) Name() string {
	return fmt.Sprintf("Q%d%s", c.Edges, c.Method)
}

// QuerySet generates a query set against db. Every query is connected,
// has exactly cfg.Edges edges and is subgraph-isomorphic to at least one
// data graph by construction.
func QuerySet(db *graph.Database, cfg QuerySetConfig) ([]*graph.Graph, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("gen: empty database")
	}
	if cfg.Count <= 0 || cfg.Edges <= 0 {
		return nil, fmt.Errorf("gen: non-positive query set parameter: %+v", cfg)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	queries := make([]*graph.Graph, 0, cfg.Count)
	for len(queries) < cfg.Count {
		g := db.Graph(r.Intn(db.Len()))
		if g.NumEdges() < cfg.Edges {
			continue
		}
		var q *graph.Graph
		switch cfg.Method {
		case QueryRandomWalk:
			q = walkExtract(r, g, cfg.Edges)
		case QueryBFS:
			q = bfsExtract(r, g, cfg.Edges)
		default:
			q = inducedExtract(r, g, cfg.Edges)
		}
		if q == nil {
			continue
		}
		// Walk and BFS extraction hit the edge target exactly; induced
		// extraction cannot (adopting a vertex adds all its edges into the
		// visited set at once), so Q_iI accepts a bounded overshoot.
		if cfg.Method == QueryInduced {
			if q.NumEdges() >= cfg.Edges && q.NumEdges() <= 2*cfg.Edges {
				queries = append(queries, q)
			}
		} else if q.NumEdges() == cfg.Edges {
			queries = append(queries, q)
		}
	}
	return queries, nil
}

// extraction keeps the data-to-query vertex renaming while edges accrue.
type extraction struct {
	ids    map[graph.VertexID]graph.VertexID
	labels []graph.Label
	es     *edgeSet
	g      *graph.Graph
}

func newExtraction(g *graph.Graph) *extraction {
	return &extraction{
		ids: make(map[graph.VertexID]graph.VertexID),
		es:  newEdgeSet(g.NumVertices()),
		g:   g,
	}
}

func (x *extraction) id(v graph.VertexID) graph.VertexID {
	if q, ok := x.ids[v]; ok {
		return q
	}
	q := graph.VertexID(len(x.labels))
	x.ids[v] = q
	x.labels = append(x.labels, x.g.Label(v))
	return q
}

// addEdge records the data edge (u,v) and reports whether it was new.
func (x *extraction) addEdge(u, v graph.VertexID) bool {
	return x.es.add(x.id(u), x.id(v))
}

func (x *extraction) build() *graph.Graph {
	return graph.MustFromEdges(x.labels, x.es.edges)
}

// walkExtract follows the paper's random walk procedure; returns nil when
// the walk stalls before reaching the edge target.
func walkExtract(r *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	x := newExtraction(g)
	cur := graph.VertexID(r.Intn(g.NumVertices()))
	x.id(cur)
	for steps := 0; x.es.len() < edges; steps++ {
		if steps > 200*edges+200 {
			return nil
		}
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			return nil
		}
		next := nbrs[r.Intn(len(nbrs))]
		x.addEdge(cur, next)
		cur = next
	}
	return x.build()
}

// bfsExtract follows the paper's BFS procedure: traverse breadth-first
// from a random start; when visiting a new vertex, add its edges to all
// already-visited vertices one at a time, stopping exactly at the edge
// target.
func bfsExtract(r *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	x := newExtraction(g)
	start := graph.VertexID(r.Intn(g.NumVertices()))
	x.id(start)
	visited := map[graph.VertexID]bool{start: true}
	queue := []graph.VertexID{start}
	for len(queue) > 0 && x.es.len() < edges {
		v := queue[0]
		queue = queue[1:]
		// Shuffle neighbor visit order for query diversity.
		nbrs := append([]graph.VertexID(nil), g.Neighbors(v)...)
		r.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		for _, w := range nbrs {
			if x.es.len() >= edges {
				break
			}
			if visited[w] {
				continue
			}
			visited[w] = true
			queue = append(queue, w)
			// Add w's edges to all visited vertices, capped at the target.
			for _, u := range g.Neighbors(w) {
				if visited[u] {
					x.addEdge(w, u)
					if x.es.len() >= edges {
						break
					}
				}
			}
		}
	}
	if x.es.len() != edges {
		return nil
	}
	return x.build()
}

// inducedExtract grows a vertex set breadth-first from a random start and
// returns the vertex-induced subgraph once it carries at least the target
// number of edges: every time a vertex is adopted, *all* of its edges to
// previously adopted vertices are added, so the result is the densest
// subgraph on the chosen vertex set. Returns nil when the component is
// exhausted before reaching the target.
func inducedExtract(r *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	x := newExtraction(g)
	start := graph.VertexID(r.Intn(g.NumVertices()))
	x.id(start)
	visited := map[graph.VertexID]bool{start: true}
	queue := []graph.VertexID{start}
	for len(queue) > 0 && x.es.len() < edges {
		v := queue[r.Intn(len(queue))] // random frontier pick for diversity
		last := len(queue) - 1
		for i, w := range queue {
			if w == v {
				queue[i] = queue[last]
				break
			}
		}
		queue = queue[:last]
		for _, w := range g.Neighbors(v) {
			if x.es.len() >= edges {
				break
			}
			if visited[w] {
				continue
			}
			// Adopting w adds all its edges into the visited set at once;
			// skip hubs that would overshoot the 2× acceptance cap (dense
			// data graphs otherwise rarely land in the accepted band).
			add := 0
			for _, u := range g.Neighbors(w) {
				if visited[u] {
					add++
				}
			}
			if x.es.len()+add > 2*edges {
				continue
			}
			visited[w] = true
			queue = append(queue, w)
			// Induced: adopt every edge from w back into the visited set.
			for _, u := range g.Neighbors(w) {
				if visited[u] {
					x.addEdge(w, u)
				}
			}
		}
	}
	if x.es.len() < edges {
		return nil
	}
	return x.build()
}

// QuerySetStats summarizes a query set in the shape of the paper's Table V.
type QuerySetStats struct {
	VerticesPerQuery float64 // |V| per q
	LabelsPerQuery   float64 // |Σ| per q
	DegreePerQuery   float64 // d per q
	TreeFraction     float64 // % of trees
}

// ComputeQuerySetStats returns Table V-style statistics for the set.
func ComputeQuerySetStats(queries []*graph.Graph) QuerySetStats {
	var s QuerySetStats
	if len(queries) == 0 {
		return s
	}
	for _, q := range queries {
		s.VerticesPerQuery += float64(q.NumVertices())
		s.LabelsPerQuery += float64(q.DistinctLabels())
		s.DegreePerQuery += q.AverageDegree()
		if q.IsTree() {
			s.TreeFraction++
		}
	}
	n := float64(len(queries))
	s.VerticesPerQuery /= n
	s.LabelsPerQuery /= n
	s.DegreePerQuery /= n
	s.TreeFraction /= n
	return s
}

// Renumber returns an isomorphic copy of g with its vertices renumbered by
// a permutation drawn from r — what a client re-submitting the same query
// with a different vertex order sends. Answer sets and the WL fingerprint
// are invariant under it; vertex ids and adjacency order are not.
func Renumber(g *graph.Graph, r *rand.Rand) *graph.Graph {
	perm := r.Perm(g.NumVertices())
	labels := make([]graph.Label, g.NumVertices())
	for v, l := range g.Labels() {
		labels[perm[v]] = l
	}
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(perm[e.U]), V: graph.VertexID(perm[e.V])}
	}
	return graph.MustFromEdges(labels, edges)
}
