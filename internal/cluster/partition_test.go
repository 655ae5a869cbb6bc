package cluster

import (
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

func testDB(t *testing.T, graphs, vertices int, seed int64) *graph.Database {
	t.Helper()
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: graphs, NumVertices: vertices, NumLabels: 5, Degree: 3, Seed: seed,
	})
	if err != nil {
		t.Fatalf("synthetic db: %v", err)
	}
	return db
}

// Invariant 1: every graph id lands on exactly one shard, for every
// cluster width.
func TestPartitionCoversEveryGraphExactlyOnce(t *testing.T) {
	db := testDB(t, 200, 14, 11)
	for _, n := range []int{1, 2, 3, 5, 8} {
		part := partition(db, n)
		if len(part) != db.Len() {
			t.Fatalf("n=%d: %d assignments for %d graphs", n, len(part), db.Len())
		}
		for id, s := range part {
			if s < 0 || s >= n {
				t.Fatalf("n=%d: graph %d assigned to shard %d", n, id, s)
			}
		}
		total := 0
		for _, g := range groupByShard(part, n) {
			total += len(g)
		}
		if total != db.Len() {
			t.Fatalf("n=%d: groups cover %d of %d graphs", n, total, db.Len())
		}
	}
}

// renumber rebuilds g with its vertex ids reversed: same graph, different
// serialization order.
func renumber(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	perm := func(v graph.VertexID) graph.VertexID { return graph.VertexID(n-1) - v }
	labels := make([]graph.Label, n)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		labels[perm(graph.VertexID(v))] = g.Label(graph.VertexID(v))
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < u {
				edges = append(edges, graph.Edge{U: perm(graph.VertexID(v)), V: perm(u)})
			}
		}
	}
	return graph.MustFromEdges(labels, edges)
}

// Invariant 2: the partition is a function of graph content, not vertex
// numbering — reloading a database whose graphs were re-serialized in a
// different vertex order reproduces the same shard assignment.
func TestPartitionDeterministicUnderVertexRenumbering(t *testing.T) {
	db := testDB(t, 120, 12, 23)
	renum := make([]*graph.Graph, db.Len())
	for i := range renum {
		renum[i] = renumber(db.Graph(i))
	}
	db2 := graph.NewDatabase(renum)
	for _, n := range []int{2, 4, 7} {
		a, b := partition(db, n), partition(db2, n)
		for id := range a {
			if a[id] != b[id] {
				t.Fatalf("n=%d: graph %d moved %d -> %d under vertex renumbering",
					n, id, a[id], b[id])
			}
		}
	}
}

// Invariant 3: growing the cluster N -> N+1 moves a bounded fraction of
// the database (rendezvous hashing: 1/(N+1) expected). A modulo scheme
// would move ~N/(N+1) and fail this hard.
func TestHashRebalancingMovesBoundedFraction(t *testing.T) {
	db := testDB(t, 600, 10, 31)
	for _, n := range []int{2, 4, 8} {
		before, after := partition(db, n), partition(db, n+1)
		moved := 0
		for id := range before {
			if before[id] != after[id] {
				moved++
				if after[id] != n {
					t.Errorf("n=%d: graph %d moved %d -> %d, not to the new shard %d",
						n, id, before[id], after[id], n)
				}
			}
		}
		frac := float64(moved) / float64(db.Len())
		// Expected 1/(n+1); 2.2x headroom keeps the test deterministic
		// while still rejecting any full-reshuffle scheme.
		if limit := 2.2 / float64(n+1); frac > limit {
			t.Errorf("n=%d -> %d moved %.1f%% of graphs, want <= %.1f%%",
				n, n+1, 100*frac, 100*limit)
		}
		if moved == 0 {
			t.Errorf("n=%d -> %d moved nothing; new shard unused", n, n+1)
		}
	}
}
