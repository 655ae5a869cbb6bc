package matching

import (
	"testing"

	"subgraphquery/internal/graph"
)

func TestSignatures(t *testing.T) {
	// Path 0-1-2-3 with labels a,b,c,d: from vertex 0, distance-1 = {b},
	// distance-2 = {c}.
	g := graph.MustFromEdges([]graph.Label{10, 11, 12, 13},
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	sigs := signatures(g)
	if got := sigs[0][0].Count(11); got != 1 {
		t.Errorf("distance-1 count of label 11 = %d, want 1", got)
	}
	if got := sigs[0][1].Count(12); got != 1 {
		t.Errorf("distance-2 count of label 12 = %d, want 1", got)
	}
	if got := sigs[0][1].Count(13); got != 0 {
		t.Errorf("distance-2 count of label 13 = %d, want 0 (it is at distance 3)", got)
	}
	// From the middle vertex 1: distance-1 = {a, c}, distance-2 = {d}.
	if got := sigs[1][0].Count(10); got != 1 {
		t.Errorf("middle distance-1 label 10 = %d", got)
	}
	if got := sigs[1][1].Count(13); got != 1 {
		t.Errorf("middle distance-2 label 13 = %d", got)
	}
}

func TestCoversCumulative(t *testing.T) {
	// Query u: one neighbor labeled 7 at distance 2. Data v: the label-7
	// vertex at distance 1 (a shortcut). covers must accept: distances in
	// the data graph can only shrink under subgraph isomorphism.
	var qu, dv signature
	qu[1] = graph.NLFFromCounts(map[graph.Label]uint32{7: 1})
	dv[0] = graph.NLFFromCounts(map[graph.Label]uint32{7: 1})
	if !covers(dv, qu) {
		t.Error("cumulative coverage must accept distance shrinkage")
	}
	// The reverse — query needs label 7 at distance 1 but data only has it
	// at distance 2 — must be rejected at level 1 and stay rejected.
	var qu2, dv2 signature
	qu2[0] = graph.NLFFromCounts(map[graph.Label]uint32{7: 1})
	dv2[1] = graph.NLFFromCounts(map[graph.Label]uint32{7: 1})
	if covers(dv2, qu2) {
		t.Error("level-1 deficit must reject")
	}
}

func TestSPathFiltersByDistance2(t *testing.T) {
	// Two data stars: one whose center has a label-9 vertex at distance 2,
	// one without. Query requires it; SPath's signature must separate them
	// (a pure label/degree filter cannot).
	with := graph.MustFromEdges([]graph.Label{0, 1, 9},
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	without := graph.MustFromEdges([]graph.Label{0, 1, 1},
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	q := graph.MustFromEdges([]graph.Label{0, 1, 9},
		[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if !SPath.FindFirst(q, with, Options{}).Found() {
		t.Error("q should be found in the graph containing label 9")
	}
	if SPath.FindFirst(q, without, Options{}).Found() {
		t.Error("q found in a graph lacking label 9")
	}
}
