package matching

import (
	"math/rand"
	"testing"
	"time"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// genCorpora returns small internal/gen databases — label-poor synthetic
// and label-rich AIDS-like — with queries drawn from each.
func genCorpora(t *testing.T) (dbs []*graph.Database, queries []*graph.Graph) {
	t.Helper()
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 25, NumVertices: 16, NumLabels: 3, Degree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*graph.Database{syn, aids} {
		dbs = append(dbs, db)
		for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
			qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 6, Edges: 4 + 4*i, Method: m, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, qs...)
		}
	}
	return dbs, queries
}

// TestPlanAgreesWithBruteForce: for every (q, G) over the gen corpora —
// queries meet graphs of their own database and of the other one, so both
// verdicts occur — the compiled demands answer what checking every run of
// every query vertex's NLF profile against the graph's table answers, and
// the class-scored root is the vertex the per-vertex rule picks. One
// Scratch serves all queries, as in a pool.
func TestPlanAgreesWithBruteForce(t *testing.T) {
	dbs, queries := genCorpora(t)
	s := NewScratch()
	rejected, passed := 0, 0
	for qi, q := range queries {
		profs := graph.AllNLF(q)
		for di, db := range dbs {
			for gid := 0; gid < db.Len(); gid++ {
				g := db.Graph(gid)

				want := true
				for u, prof := range profs {
					prof.ForEach(func(l graph.Label, c int) bool {
						if g.MaxNeighborsWithLabel(q.Label(graph.VertexID(u)), l) < c {
							want = false
						}
						return want
					})
				}
				if got := g.MeetsPairDemands(s.planFor(q).demands); got != want {
					t.Fatalf("q%d db%d g%d: merged demand check says %v, the profiles say %v", qi, di, gid, got, want)
				}
				cand := CFLFilter(q, g, FilterOptions{Scratch: s})
				if !want {
					rejected++
					if !cand.AnyEmpty() || cand.Aborted || len(cand.Sets) != q.NumVertices() || cand.TotalSize() != 0 {
						t.Fatalf("q%d db%d g%d: a rejected graph must come back as %d empty sets", qi, di, gid, q.NumVertices())
					}
					continue
				}
				passed++

				wantRoot, best := graph.VertexID(0), -1.0
				for u := 0; u < q.NumVertices(); u++ {
					uu := graph.VertexID(u)
					cnt := 0
					for _, v := range g.LabeledVertices(q.Label(uu)) {
						if g.Degree(v) >= q.Degree(uu) {
							cnt++
						}
					}
					score := float64(cnt) / float64(max(q.Degree(uu), 1))
					if best < 0 || score < best {
						wantRoot, best = uu, score
					}
				}
				if got := cflRoot(q, g, s); got != wantRoot {
					t.Fatalf("q%d db%d g%d: class-scored root %d, per-vertex rule picks %d", qi, di, gid, got, wantRoot)
				}
			}
		}
	}
	if rejected == 0 || passed == 0 {
		t.Fatalf("prefilter rejected %d and passed %d pairs; the corpora must exercise both", rejected, passed)
	}
}

// TestChangeOfQueryZeroAlloc: compiling the plan of another query on a
// warmed Scratch allocates nothing — what keeps the result cache's probes,
// one query per entry on one arena, off the heap.
func TestChangeOfQueryZeroAlloc(t *testing.T) {
	skipIfDebugInvariants(t)
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	r := rand.New(rand.NewSource(47))
	g := randomConnectedGraph(r, 120, 200, 4)
	queries := []*graph.Graph{randomQueryFrom(r, g, 9), randomQueryFrom(r, g, 4), randomQueryFrom(r, g, 7)}
	s := NewScratch()
	filterAll := func() {
		for _, q := range queries {
			CFLFilter(q, g, FilterOptions{Scratch: s})
			GraphQLFilter(q, g, FilterOptions{Scratch: s})
		}
	}
	filterAll()
	if allocs := testing.AllocsPerRun(50, filterAll); allocs != 0 {
		t.Fatalf("filtering with a change of query allocated %v times per run, want 0", allocs)
	}
}

// TestFilterStopsWithinStride: wherever the Scratch's boundary count
// stands, a filter handed a passed Deadline returns Aborted at the first
// boundary whose count is a multiple of deadlineStride — never more than
// deadlineStride boundaries in — on a pair that has more boundaries than
// that to go through; a closed Cancel aborts at the very next boundary.
// Boundaries are counted, nothing sleeps.
func TestFilterStopsWithinStride(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	g := randomConnectedGraph(r, 60, 90, 2)
	q := randomQueryFrom(r, g, 7)
	past := time.Now().Add(-time.Second)
	closed := make(chan struct{})
	close(closed)

	for name, filter := range map[string]func(q, g *graph.Graph, opts FilterOptions) *Candidates{
		"CFL": CFLFilter, "GraphQL": GraphQLFilter,
	} {
		s := NewScratch()
		if cand := filter(q, g, FilterOptions{Scratch: s, Deadline: time.Now().Add(time.Hour)}); cand.Aborted || cand.AnyEmpty() {
			t.Fatalf("%s: q is drawn from g and the deadline is an hour away; Aborted=%v", name, cand.Aborted)
		}
		if s.boundaries <= deadlineStride {
			t.Fatalf("%s: a full pass crosses %d boundaries, need more than %d", name, s.boundaries, deadlineStride)
		}
		for offset := uint(0); offset < deadlineStride; offset++ {
			s.boundaries = offset
			cand := filter(q, g, FilterOptions{Scratch: s, Deadline: past})
			if crossed := s.boundaries - offset; !cand.Aborted || s.boundaries != deadlineStride {
				t.Errorf("%s from count %d: Aborted=%v after %d boundaries, want an abort at count %d",
					name, offset, cand.Aborted, crossed, deadlineStride)
			}
			s.boundaries = offset
			cand = filter(q, g, FilterOptions{Scratch: s, Cancel: closed})
			if crossed := s.boundaries - offset; !cand.Aborted || crossed != 1 {
				t.Errorf("%s from count %d: Aborted=%v after %d boundaries with Cancel closed, want an abort at the first",
					name, offset, cand.Aborted, crossed)
			}
		}
	}
}
