package matching

import (
	"slices"
	"testing"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/graph"
)

// decodePair turns fuzz bytes into a small connected query and a data graph.
// The first three bytes give the label count (1-3), |V(G)| (1-14) and |V(q)|
// (1-5); then come G's labels and one bit per vertex pair for its edges, and
// q's labels, a spanning tree (the parent of vertex i is a byte mod i) and
// one bit per remaining pair. Bytes past the end read as zero.
func decodePair(data []byte) (q, g *graph.Graph) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var word byte
	left := 0
	bit := func() bool {
		if left == 0 {
			word, left = next(), 8
		}
		left--
		return word>>left&1 == 1
	}
	labels := 1 + next()%3
	ng, nq := 1+int(next()%14), 1+int(next()%5)

	gl := make([]graph.Label, ng)
	for i := range gl {
		gl[i] = graph.Label(next() % labels)
	}
	var ge []graph.Edge
	for i := 0; i < ng; i++ {
		for j := i + 1; j < ng; j++ {
			if bit() {
				ge = append(ge, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
			}
		}
	}

	ql := make([]graph.Label, nq)
	for i := range ql {
		ql[i] = graph.Label(next() % labels)
	}
	tree := make([]int, nq) // tree[i]: the parent of vertex i > 0
	var qe []graph.Edge
	for i := 1; i < nq; i++ {
		tree[i] = int(next()) % i
		qe = append(qe, graph.Edge{U: graph.VertexID(tree[i]), V: graph.VertexID(i)})
	}
	for i := 0; i < nq; i++ {
		for j := i + 1; j < nq; j++ {
			if tree[j] != i && bit() {
				qe = append(qe, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
			}
		}
	}
	return graph.MustFromEdges(ql, qe), graph.MustFromEdges(gl, ge)
}

// padPast64 is padded for decodePair's graphs: the isolated vertices carry
// label 3, which neither graph uses (padded's pick is only new to G, and q
// could carry it).
func padPast64(t *testing.T, g *graph.Graph) *graph.Graph {
	labels := slices.Clone(g.Labels())
	for len(labels) <= domain.WordVertices {
		labels = append(labels, 3)
	}
	p, err := graph.FromEdges(labels, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzQueryEquivalence is the oracle for the pruned search: on every decoded
// (q, G), each catalogue matcher — a filter, an order and Enumerate with its
// look-ahead — counts the embeddings brute force and VF2 count, and its
// first-match verdict agrees, on G (the word kernels) and on G padded past 64
// vertices (the list kernels). The seeds below and testdata/fuzz run in
// every `go test`; `go test -fuzz FuzzQueryEquivalence ./internal/matching`
// searches further.
func FuzzQueryEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 13, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})   // K14 and a 5-vertex star, one label
	f.Add([]byte{1, 9, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0, 1, 0}) // two labels, a path query
	f.Add([]byte{2, 11, 4, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 0xf0, 0x0f, 0xcc, 0x33, 0x99, 0x66, 0xe7, 0x18, 0, 1, 2, 0, 1, 0, 1, 2, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, g := decodePair(data)
		want := bruteForceCount(q, g)
		for _, side := range []struct {
			name string
			g    *graph.Graph
		}{{"G", g}, {"padded G", padPast64(t, g)}} {
			vf2 := &VF2{}
			if got := vf2.Run(q, side.g, Options{}).Embeddings; got != want {
				t.Fatalf("%s: VF2 counts %d embeddings, brute force %d\nq %v\nG %v", side.name, got, want, q.Edges(), g.Edges())
			}
			for _, m := range Matchers {
				s := NewScratch()
				all := m.Run(q, side.g, Options{Scratch: s})
				if all.Embeddings != want || all.Aborted {
					t.Fatalf("%s: %s counts %d embeddings (%+v), brute force %d\nq %v %v\nG %v %v",
						side.name, m.Name, all.Embeddings, all, want, q.Labels(), q.Edges(), g.Labels(), g.Edges())
				}
				if first := m.FindFirst(q, side.g, Options{Scratch: s}); first.Found() != (want > 0) {
					t.Fatalf("%s: %s first-match verdict %v, brute force counts %d", side.name, m.Name, first.Found(), want)
				}
			}
		}
	})
}
