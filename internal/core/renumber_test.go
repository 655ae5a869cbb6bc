package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
)

// TestRenumberingChangesNoAnswer: vertex ids are names, so gen.Renumber of
// the query or of every data graph must leave each vcFV engine's answer set,
// and CFQL's count of all embeddings per (query, graph) pair, as they were.
// Renumbering moves candidates to other ids, so the search tries them in
// another order and the look-ahead and backjumps fire elsewhere: the
// property holds only if pruning never loses an embedding. Label-poor
// synthetic graphs and AIDS-like ones, as in the word-kernel tests.
func TestRenumberingChangesNoAnswer(t *testing.T) {
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 10, NumVertices: 60, NumLabels: 3, Degree: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.0015, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(36))
	for name, db := range map[string]*graph.Database{"syn-like": syn, "AIDS-like": aids} {
		renumbered := make([]*graph.Graph, db.Len())
		for i := range renumbered {
			renumbered[i] = gen.Renumber(db.Graph(i), r)
		}
		rdb := graph.NewDatabase(renumbered)
		var queries []*graph.Graph
		for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
			qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 5, Edges: 6 + 10*(1-i), Method: m, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, qs...)
		}
		engines := []func() Engine{NewCFL, NewGraphQL, NewCFQL, func() Engine { return NewParallelCFQL(2) }}
		var pruned uint64
		for qi, q := range queries {
			rq := gen.Renumber(q, r)
			for _, mk := range engines {
				e, re := mk(), mk()
				if err := e.Build(db, BuildOptions{}); err != nil {
					t.Fatal(err)
				}
				if err := re.Build(rdb, BuildOptions{}); err != nil {
					t.Fatal(err)
				}
				want := e.Query(q, QueryOptions{}).Answers
				for what, got := range map[string][]int{
					"renumbered query":  e.Query(rq, QueryOptions{}).Answers,
					"renumbered graphs": re.Query(q, QueryOptions{}).Answers,
				} {
					if !slices.Equal(got, want) {
						t.Fatalf("%s q%d %s, %s: answers %v, want %v", name, qi, e.Name(), what, got, want)
					}
				}
			}
			for gid := 0; gid < db.Len(); gid++ {
				at := fmt.Sprintf("%s q%d g%d", name, qi, gid)
				all := matching.CFQL.Run(q, db.Graph(gid), matching.Options{})
				pruned += all.Pruned
				for what, res := range map[string]matching.Result{
					"renumbered query": matching.CFQL.Run(rq, db.Graph(gid), matching.Options{}),
					"renumbered graph": matching.CFQL.Run(q, renumbered[gid], matching.Options{}),
				} {
					if res.Embeddings != all.Embeddings || res.Aborted || all.Aborted {
						t.Fatalf("%s, %s: %d embeddings (%+v), %d before (%+v)", at, what, res.Embeddings, res, all.Embeddings, all)
					}
				}
			}
		}
		t.Logf("%s: %d queries, %d candidates skipped by the look-ahead", name, len(queries), pruned)
		if name == "syn-like" && pruned == 0 {
			t.Errorf("%s: the look-ahead never fired", name)
		}
	}
}
