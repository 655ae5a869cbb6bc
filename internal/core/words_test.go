package core

import (
	"slices"
	"testing"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// paddedDB returns db with every graph padded by isolated vertices of a
// label it does not use up to 65 vertices: the same database to any query,
// but past domain.WordVertices, so the engines run it on the list kernels
// (see internal/matching/words_test.go).
func paddedDB(t *testing.T, db *graph.Database) *graph.Database {
	t.Helper()
	gs := make([]*graph.Graph, db.Len())
	for i := range gs {
		g := db.Graph(i)
		unused := graph.Label(0)
		for _, l := range g.Labels() {
			unused = max(unused, l+1)
		}
		labels := slices.Clone(g.Labels())
		for len(labels) <= domain.WordVertices {
			labels = append(labels, unused)
		}
		p, err := graph.FromEdges(labels, g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = p
	}
	return graph.NewDatabase(gs)
}

// TestWordPathAnswersMatchPaddedListPath: the vcFV engines and the result
// cache answer a query the same — answers, candidates and verification steps
// — over small graphs (word kernels) and over their padded twins (list
// kernels), label-poor synthetic and AIDS-like alike. Each query is asked
// twice, so the cached engine answers once from its inner engine and its
// pool verification and once from the cache.
func TestWordPathAnswersMatchPaddedListPath(t *testing.T) {
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 12, NumVertices: 60, NumLabels: 3, Degree: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*graph.Database{"syn-like": syn, "AIDS-like": aids} {
		var queries []*graph.Graph
		for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
			// Two sizes per method: a later, larger query can contain an
			// earlier one, which is what the cache's containment probes and
			// pool verification feed on.
			for _, edges := range []int{4 + 2*i, 10 + 2*i} {
				qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 4, Edges: edges, Method: m, Seed: 12})
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, qs...)
			}
		}
		pdb := paddedDB(t, db)
		for ename, mk := range map[string]func() Engine{
			"CFQL": NewCFQL, "CFL": NewCFL, "vcGGSX": NewVcGGSX,
			"Cached(CFQL)": func() Engine { return NewCached(NewCFQL(), 8) },
		} {
			words, lists := mk(), mk()
			if err := words.Build(db, BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := lists.Build(pdb, BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			answered := 0
			for round := 0; round < 2; round++ {
				for qi, q := range queries {
					opts := QueryOptions{StepBudgetPerGraph: 200000}
					rw, rl := words.Query(q, opts), lists.Query(q, opts)
					if !equalInts(rw.Answers, rl.Answers) || rw.Candidates != rl.Candidates || rw.VerifySteps != rl.VerifySteps ||
						rw.TimedOut != rl.TimedOut || rw.Err != nil || rl.Err != nil {
						t.Fatalf("%s %s q%d round %d: words %v (%d candidates, %d steps, timed out %v, err %v), lists %v (%d, %d, %v, %v)",
							name, ename, qi, round, rw.Answers, rw.Candidates, rw.VerifySteps, rw.TimedOut, rw.Err,
							rl.Answers, rl.Candidates, rl.VerifySteps, rl.TimedOut, rl.Err)
					}
					answered += len(rw.Answers)
				}
			}
			if answered == 0 {
				t.Errorf("%s %s: no query had an answer", name, ename)
			}
		}
	}
}
