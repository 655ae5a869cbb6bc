package subgraphquery_test

import (
	"fmt"
	"log"

	sq "subgraphquery"
)

// Build a tiny graph database, answer a subgraph query with the index-free
// CFQL engine, and count the embeddings inside each answer. The data graphs
// are three small molecules over the labels {0: C, 1: O, 2: N}; the query
// is an O-C-N path.
func Example() {
	// Three data graphs: a triangle C-O-N, a branched chain O-C(-N-C), and
	// a star with no nitrogen.
	g0, err := sq.FromEdges(
		[]sq.Label{0, 1, 2}, // C, O, N
		[]sq.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}},
	)
	if err != nil {
		log.Fatal(err)
	}
	g1, err := sq.FromEdges(
		[]sq.Label{0, 1, 2, 0}, // C, O, N, C
		[]sq.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}},
	)
	if err != nil {
		log.Fatal(err)
	}
	g2, err := sq.FromEdges(
		[]sq.Label{0, 1, 1, 1}, // C with three O's
		[]sq.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}},
	)
	if err != nil {
		log.Fatal(err)
	}
	db := sq.NewDatabase([]*sq.Graph{g0, g1, g2})

	// The query: an O and an N, both attached to a C.
	q, err := sq.FromEdges(
		[]sq.Label{1, 0, 2}, // O, C, N
		[]sq.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
	)
	if err != nil {
		log.Fatal(err)
	}

	// The CFQL engine needs no index: Build only registers the database.
	engine := sq.NewCFQLEngine()
	if err := engine.Build(db, sq.BuildOptions{}); err != nil {
		log.Fatal(err)
	}

	res := engine.Query(q, sq.QueryOptions{})
	fmt.Printf("query contained in data graphs: %v\n", res.Answers)
	fmt.Printf("candidates after filtering:     %d of %d\n", res.Candidates, db.Len())

	// Full subgraph matching on each answer graph: enumerate all embeddings.
	for _, id := range res.Answers {
		fmt.Printf("graph %d: %d embeddings\n", id, sq.CountEmbeddings(q, db.Graph(id)))
	}
	// Output:
	// query contained in data graphs: [0 1]
	// candidates after filtering:     2 of 3
	// graph 0: 1 embeddings
	// graph 1: 1 embeddings
}
