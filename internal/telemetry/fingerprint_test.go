package telemetry

import (
	"encoding/json"
	"math/rand"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// randomGraph builds a random connected-ish labeled graph.
func randomGraph(rng *rand.Rand, n, extraEdges, numLabels int) *graph.Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = graph.Label(rng.Intn(numLabels))
	}
	seen := map[[2]int]bool{}
	var edges []graph.Edge
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	// Spanning tree first so the graph is connected.
	for v := 1; v < n; v++ {
		addEdge(rng.Intn(v), v)
	}
	for i := 0; i < extraEdges; i++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return graph.MustFromEdges(labels, edges)
}

// TestFingerprintRenumberingInvariance is the property the fingerprint
// exists for: isomorphic queries that differ only in vertex numbering
// hash identically.
func TestFingerprintRenumberingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		g := randomGraph(rng, n, rng.Intn(2*n), 1+rng.Intn(4))
		want := Compute(g)
		for p := 0; p < 5; p++ {
			h := gen.Renumber(g, rng)
			if got := Compute(h); got != want {
				t.Fatalf("trial %d perm %d: fingerprint changed under renumbering: %s vs %s",
					trial, p, got, want)
			}
		}
	}
}

// TestFingerprintSensitivity: structurally or label-wise different queries
// should (virtually always) hash differently.
func TestFingerprintSensitivity(t *testing.T) {
	// Path a-b-c vs triangle a-b-c.
	path := graph.MustFromEdges([]graph.Label{0, 1, 2}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	tri := graph.MustFromEdges([]graph.Label{0, 1, 2}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if Compute(path) == Compute(tri) {
		t.Fatal("path and triangle collide")
	}
	// Same structure, one label changed.
	relabeled := graph.MustFromEdges([]graph.Label{0, 1, 3}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if Compute(path) == Compute(relabeled) {
		t.Fatal("relabeled path collides with original")
	}
	// Deterministic across calls.
	if Compute(path) != Compute(path) {
		t.Fatal("fingerprint not deterministic")
	}
	if Compute(path) == 0 {
		t.Fatal("fingerprint must never be zero (reserved for unset)")
	}
}

func TestFingerprintEmptyGraph(t *testing.T) {
	g := graph.MustFromEdges(nil, nil)
	if Compute(g) == 0 {
		t.Fatal("empty graph fingerprint must be non-zero")
	}
	if Compute(g) != Compute(g) {
		t.Fatal("empty graph fingerprint not deterministic")
	}
}

func TestFingerprintJSONRoundTrip(t *testing.T) {
	f := Fingerprint(0xdeadbeefcafe1234)
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeefcafe1234"` {
		t.Fatalf("marshal = %s", b)
	}
	var back Fingerprint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Fatalf("round trip: %x != %x", uint64(back), uint64(f))
	}
	// Lenient decimal form.
	if err := json.Unmarshal([]byte("77"), &back); err != nil {
		t.Fatal(err)
	}
	if back != 77 {
		t.Fatalf("decimal form: got %d", back)
	}
	// String/Parse round trip.
	p, err := ParseFingerprint(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if p != f {
		t.Fatalf("parse round trip: %s != %s", p, f)
	}
}
