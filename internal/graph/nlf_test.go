package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNLFFromCounts(t *testing.T) {
	p := NLFFromCounts(map[Label]uint32{5: 2, 1: 1, 9: 0})
	if got := p.Count(5); got != 2 {
		t.Errorf("Count(5) = %d, want 2", got)
	}
	if got := p.Count(1); got != 1 {
		t.Errorf("Count(1) = %d, want 1", got)
	}
	if got := p.Count(9); got != 0 {
		t.Errorf("Count(9) = %d, want 0 (zero counts dropped)", got)
	}
	if got := p.DistinctLabels(); got != 2 {
		t.Errorf("DistinctLabels = %d, want 2", got)
	}
	if empty := NLFFromCounts(nil); empty.DistinctLabels() != 0 {
		t.Error("empty counts should give empty profile")
	}
}

func TestNLFFromCountsMatchesNLFOf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(20), r.Intn(30), 1+r.Intn(4))
		for v := 0; v < g.NumVertices(); v++ {
			counts := map[Label]uint32{}
			for _, w := range g.Neighbors(VertexID(v)) {
				counts[g.Label(w)]++
			}
			rebuilt := NLFFromCounts(counts)
			direct := NLFOf(g, VertexID(v))
			equal := true
			direct.ForEach(func(l Label, c int) bool {
				if rebuilt.Count(l) != c {
					equal = false
					return false
				}
				return true
			})
			if !equal || rebuilt.DistinctLabels() != direct.DistinctLabels() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNLFForEachEarlyStop(t *testing.T) {
	p := NLFFromCounts(map[Label]uint32{1: 1, 2: 1, 3: 1})
	visits := 0
	p.ForEach(func(Label, int) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Errorf("ForEach visited %d runs after early stop, want 2", visits)
	}
}

func TestSubsumesReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(15), r.Intn(25), 1+r.Intn(4))
		for v := 0; v < g.NumVertices(); v++ {
			p := NLFOf(g, VertexID(v))
			if !p.Subsumes(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNLFArenaMatchesNLFOf: one arena reused across graphs of varying size
// yields exactly the per-vertex profiles, and a graph no larger than one
// already seen costs no allocation.
func TestNLFArenaMatchesNLFOf(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var arena NLFArena
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 2+r.Intn(20), r.Intn(30), 1+r.Intn(4))
		profs := arena.Of(g)
		if len(profs) != g.NumVertices() {
			t.Fatalf("trial %d: %d profiles for %d vertices", trial, len(profs), g.NumVertices())
		}
		for v, got := range profs {
			want := NLFOf(g, VertexID(v))
			if !slices.Equal(got.labels, want.labels) || !slices.Equal(got.counts, want.counts) {
				t.Fatalf("trial %d vertex %d: arena profile %v/%v, want %v/%v", trial, v, got.labels, got.counts, want.labels, want.counts)
			}
		}
	}
	big := randomGraph(r, 30, 40, 3)
	small := randomGraph(r, 10, 10, 3)
	arena.Of(big)
	if allocs := testing.AllocsPerRun(100, func() { arena.Of(small); arena.Of(big) }); allocs != 0 {
		t.Errorf("warmed arena allocated %v times per run, want 0", allocs)
	}
}
