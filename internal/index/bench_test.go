package index

import (
	"fmt"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// The aids-index-append inputs in process: 4 000 AIDS-like graphs, the
// Q4–Q32 walk and BFS query sets, and append graphs from another seed.

func benchAIDS(b *testing.B) *graph.Database {
	b.Helper()
	db, err := gen.Real(gen.AIDS, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQueries(b *testing.B, db *graph.Database) []*graph.Graph {
	b.Helper()
	var queries []*graph.Graph
	for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
		for j, edges := range []int{4, 8, 16, 32} {
			qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 10, Edges: edges, Method: m, Seed: int64(10*i + j)})
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, qs...)
		}
	}
	return queries
}

var benchSink int

// BenchmarkGGSXBuildAIDS builds on one worker, as the paper harness does,
// and on two, as sqserver does on two cores (GOMAXPROCS caps the pool, so
// run it with -cpu 2 or more to see the second worker).
func BenchmarkGGSXBuildAIDS(b *testing.B) {
	db := benchAIDS(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ix GGSX
				if err := ix.Build(db, BuildOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				benchSink += int(ix.MemoryFootprint())
			}
		})
	}
}

func BenchmarkGGSXProbeAIDS(b *testing.B) {
	db := benchAIDS(b)
	queries := benchQueries(b, db)
	var ix GGSX
	if err := ix.Build(db, BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(ix.Filter(queries[i%len(queries)]))
	}
}

func BenchmarkGGSXInsertAIDS(b *testing.B) {
	db := benchAIDS(b)
	extra, err := gen.Real(gen.AIDS, 0.005, 1001)
	if err != nil {
		b.Fatal(err)
	}
	var ix GGSX
	if err := ix.Build(db, BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.InsertGraph(extra.Graph(i%extra.Len()), db.Len()+i); err != nil {
			b.Fatal(err)
		}
	}
}
