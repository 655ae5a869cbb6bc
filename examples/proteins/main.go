// Proteins: a verification-bound workload on a PPI-like database of large
// protein-interaction networks — the paper's hardest dataset, where
// Grapes/GGSX with VF2 failed to complete large query sets and the
// efficient-matching engines won by orders of magnitude on per-SI-test
// time (Figure 5d).
//
// The example compares the naive VF2 scan, the GraphQL vcFV engine and the
// CFQL vcFV engine on the same queries and prints the per subgraph
// isomorphism test time of each.
//
// Run with: go run ./examples/proteins [-vertices 1200] [-queries 10]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	sq "subgraphquery"
)

func main() {
	vertices := flag.Int("vertices", 1200, "vertices per network (paper: 4942)")
	queries := flag.Int("queries", 10, "queries per workload (paper: 100)")
	budget := flag.Duration("budget", 30*time.Second, "per-query budget (paper: 10m)")
	flag.Parse()

	scale := float64(*vertices) / 4942
	fmt.Printf("generating PPI-like database (~%d vertices per graph)...\n", *vertices)
	db, err := sq.GenerateReal(sq.PPI, scale, 3)
	if err != nil {
		log.Fatal(err)
	}
	stats := db.ComputeStats()
	fmt.Printf("database: %d graphs, %.0f vertices, %.0f edges, degree %.1f\n\n",
		stats.NumGraphs, stats.VerticesPerGraph, stats.EdgesPerGraph, stats.DegreePerGraph)

	engines := []sq.Engine{sq.NewScanEngine(), sq.NewGraphQLEngine(), sq.NewCFQLEngine()}
	for _, e := range engines {
		if err := e.Build(db, sq.BuildOptions{}); err != nil {
			log.Fatal(err)
		}
	}

	qs, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: *queries, Edges: 16, Method: sq.QueryRandomWalk, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload Q16S (%d queries):\n", len(qs))
	fmt.Printf("%-10s %12s %12s %10s %10s %8s\n",
		"engine", "filter/q", "verify/q", "perSItest", "|C(q)|", "timeout")
	for _, e := range engines {
		var filter, verify, perSI time.Duration
		var cands, timeouts, withCands int
		for _, q := range qs {
			ctx, cancel := context.WithTimeout(context.Background(), *budget)
			res := e.Query(q, sq.QueryOptions{Context: ctx})
			cancel()
			filter += res.FilterTime
			verify += res.VerifyTime
			cands += res.Candidates
			if res.Candidates > 0 {
				perSI += res.VerifyTime / time.Duration(res.Candidates)
				withCands++
			}
			if res.TimedOut {
				timeouts++
			}
		}
		n := time.Duration(len(qs))
		avgPerSI := time.Duration(0)
		if withCands > 0 {
			avgPerSI = perSI / time.Duration(withCands)
		}
		fmt.Printf("%-10s %12v %12v %10v %10.1f %8d\n",
			e.Name(), (filter / n).Round(time.Microsecond), (verify / n).Round(time.Microsecond),
			avgPerSI.Round(time.Microsecond), float64(cands)/float64(len(qs)), timeouts)
	}
	fmt.Println("\nthe scan verifies every graph; the vcFV engines first prune by vertex")
	fmt.Println("connectivity, then verify only the survivors with an optimized order.")
}
