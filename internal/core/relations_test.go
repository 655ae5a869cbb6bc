package core

import (
	"math/rand"
	"slices"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
)

// relationCorpora returns the label-poor synthetic and AIDS-like databases
// the oracle relations run on, as TestRenumberingChangesNoAnswer does. They
// are small because every catalogue index is built on them, and mining
// FG-Index's features costs tens of milliseconds a graph.
func relationCorpora(t *testing.T) map[string]*graph.Database {
	t.Helper()
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 6, NumVertices: 16, NumLabels: 3, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.0002, 5)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]*graph.Graph, 8)
	for i := range first {
		first[i] = aids.Graph(i)
	}
	return map[string]*graph.Database{"syn-like": syn, "AIDS-like": graph.NewDatabase(first)}
}

// takesAppends reports whether e appends graphs without a rebuild: a vcFV
// engine, an index that implements index.Appender, or a cache over either.
func takesAppends(e Engine) bool {
	switch x := e.(type) {
	case *engine:
		_, ok := x.idx.(index.Appender)
		return x.idx == nil || ok
	case *Cached:
		return takesAppends(x.inner)
	}
	return false
}

// extractFrom returns one query per data graph, taken from that graph
// alone, and the id it was taken from. It skips graphs that are not
// connected or have fewer than twice the query's edges, since the
// extraction retries until it reaches its edge target.
func extractFrom(t *testing.T, db *graph.Database, edges int) (queries []*graph.Graph, sources []int) {
	t.Helper()
	for gid := 0; gid < db.Len(); gid++ {
		g := db.Graph(gid)
		if g.NumEdges() < 2*edges || !g.IsConnected() {
			continue
		}
		method := []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS}[gid%2]
		qs, err := gen.QuerySet(graph.NewDatabase([]*graph.Graph{g}),
			gen.QuerySetConfig{Count: 1, Edges: edges, Method: method, Seed: int64(gid)})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qs[0])
		sources = append(sources, gid)
	}
	if len(queries) == 0 {
		t.Fatal("no graph large enough to extract a query from")
	}
	return queries, sources
}

// withExtraEdge returns q plus one edge between two vertices q leaves
// non-adjacent, or nil when q is complete.
func withExtraEdge(q *graph.Graph, r *rand.Rand) *graph.Graph {
	n := q.NumVertices()
	var missing []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !q.HasEdge(graph.VertexID(u), graph.VertexID(v)) {
				missing = append(missing, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return graph.MustFromEdges(q.Labels(), append(q.Edges(), missing[r.Intn(len(missing))]))
}

// isSubset reports whether every id of a is in b; both ascending.
func isSubset(a, b []int) bool {
	for _, id := range a {
		if _, found := slices.BinarySearch(b, id); !found {
			return false
		}
	}
	return true
}

// TestExtractedQueryContainsSource: a query extracted from data graph i is
// subgraph-isomorphic to it by construction, so every catalogue engine's
// answer set contains i; and adding one edge between two non-adjacent
// query vertices only constrains the query, so it never grows the answer
// set. Label-poor synthetic graphs and AIDS-like ones.
func TestExtractedQueryContainsSource(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for name, db := range relationCorpora(t) {
		queries, sources := extractFrom(t, db, 5)
		denser := make([]*graph.Graph, len(queries))
		for i, q := range queries {
			denser[i] = withExtraEdge(q, r)
		}
		for ename, e := range catalogueEngines() {
			if err := e.Build(db, BuildOptions{}); err != nil {
				t.Fatalf("%s %s build: %v", name, ename, err)
			}
			for qi, q := range queries {
				res := e.Query(q, QueryOptions{})
				if res.TimedOut || res.Err != nil || res.Skipped != 0 {
					t.Fatalf("%s %s q%d: TimedOut=%v Err=%v Skipped=%d", name, ename, qi, res.TimedOut, res.Err, res.Skipped)
				}
				if _, found := slices.BinarySearch(res.Answers, sources[qi]); !found {
					t.Fatalf("%s %s q%d: extracted from g%d, answers %v", name, ename, qi, sources[qi], res.Answers)
				}
				if denser[qi] == nil {
					continue
				}
				if more := e.Query(denser[qi], QueryOptions{}).Answers; !isSubset(more, res.Answers) {
					t.Fatalf("%s %s q%d: one more query edge grew the answers %v to %v", name, ename, qi, res.Answers, more)
				}
			}
		}
	}
}

// TestAppendNeverShrinksAnswers: every engine that takes appends, built on
// the first half of a corpus and then given the second half graph by graph,
// keeps every answer it gave before the appends, and answers each query
// extracted from an appended graph with that graph. The cache must not
// serve a set from before an append.
func TestAppendNeverShrinksAnswers(t *testing.T) {
	for name, db := range relationCorpora(t) {
		queries, sources := extractFrom(t, db, 5)
		half := db.Len() / 2
		var prefix []*graph.Graph
		for gid := 0; gid < half; gid++ {
			prefix = append(prefix, db.Graph(gid))
		}
		updated := map[string]bool{}
		for ename, e := range catalogueEngines() {
			if !takesAppends(e) {
				continue
			}
			u := e.(Updatable)
			if err := e.Build(graph.NewDatabase(prefix), BuildOptions{}); err != nil {
				t.Fatalf("%s %s build: %v", name, ename, err)
			}
			before := make([][]int, len(queries))
			for qi, q := range queries {
				before[qi] = e.Query(q, QueryOptions{}).Answers
			}
			for gid := half; gid < db.Len(); gid++ {
				if id, err := u.AppendGraph(db.Graph(gid)); err != nil || id != gid {
					t.Fatalf("%s %s: appending g%d: id %d, %v", name, ename, gid, id, err)
				}
			}
			updated[ename] = true
			for qi, q := range queries {
				after := e.Query(q, QueryOptions{}).Answers
				if !isSubset(before[qi], after) {
					t.Fatalf("%s %s q%d: answers %v before the appends, %v after", name, ename, qi, before[qi], after)
				}
				if _, found := slices.BinarySearch(after, sources[qi]); sources[qi] >= half && !found {
					t.Fatalf("%s %s q%d: extracted from appended g%d, answers %v", name, ename, qi, sources[qi], after)
				}
			}
		}
		for _, must := range []string{"CFQL", "CFQL+cache", "vcGGSX"} {
			if !updated[must] {
				t.Errorf("%s: %s took no appends", name, must)
			}
		}
		t.Logf("%s: %d graphs, %d queries, %d engines took appends", name, db.Len(), len(queries), len(updated))
	}
}
