//go:build sqdebug

package graph

import (
	"strings"
	"testing"
)

// The tests below corrupt a well-formed CSR graph field by field and check
// that debugCheckGraph panics on each corruption; they only build under
// the sqdebug tag, where debugInvariants is true.

func debugTestGraph(t *testing.T) *Graph {
	t.Helper()
	return MustFromEdges(
		[]Label{0, 1, 1, 2, 0},
		[]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {0, 4}},
	)
}

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

func TestDebugCheckGraphAcceptsValid(t *testing.T) {
	debugCheckGraph(debugTestGraph(t)) // must not panic
}

func TestDebugCheckGraphUnsortedAdjacency(t *testing.T) {
	g := debugTestGraph(t)
	// Vertex 0 has neighbors {1, 2, 4} sorted by (label, id); swapping two
	// entries breaks the ordering the binary searches rely on.
	s, e := g.offsets[0], g.offsets[1]
	if e-s < 2 {
		t.Fatal("fixture vertex 0 needs at least two neighbors")
	}
	g.adj[s], g.adj[e-1] = g.adj[e-1], g.adj[s]
	mustPanicWith(t, "not sorted", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphBrokenOffsets(t *testing.T) {
	g := debugTestGraph(t)
	g.offsets[1], g.offsets[2] = g.offsets[2], g.offsets[1]
	mustPanicWith(t, "offsets not monotone", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphWrongMaxDegree(t *testing.T) {
	g := debugTestGraph(t)
	g.maxDegree++
	mustPanicWith(t, "maxDegree", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphCorruptLabelRun(t *testing.T) {
	g := debugTestGraph(t)
	if len(g.nlEnds) == 0 {
		t.Fatal("fixture has no label runs")
	}
	g.nlEnds[0]++
	mustPanicWith(t, "run", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphWrongLabelDirectory(t *testing.T) {
	g := debugTestGraph(t)
	g.dir[1].start++ // label 1 loses its first vertex to label 0
	mustPanicWith(t, "label directory", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphWrongNeighborWord(t *testing.T) {
	g := debugTestGraph(t)
	g.nbrWords[0] |= 1 << 3 // no edge (0, 3)
	mustPanicWith(t, "neighbourhood word", func() { debugCheckGraph(g) })
}

func TestDebugCheckGraphAsymmetricEdge(t *testing.T) {
	// Path 0-1-2 with uniform labels; retargeting the arc 0 -> 1 to 0 -> 2
	// keeps the list sorted and label-consistent, but vertex 2 does not
	// list 0 back.
	h := MustFromEdges(
		[]Label{0, 0, 0},
		[]Edge{{0, 1}, {1, 2}},
	)
	h.adj[h.offsets[0]] = 2
	mustPanicWith(t, "asymmetric", func() { debugCheckGraph(h) })
}
