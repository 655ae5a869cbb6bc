package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// The word kernels (words.go) against the list kernels, with no test hook:
// padding a data graph with isolated vertices of a label it does not use up
// to 65 vertices changes nothing a query can see — vertex ids, adjacency
// and every candidate set stay as they were — but takes it past
// domain.WordVertices, so the same pair runs on the list path.

// padded returns g with isolated vertices of an unused label added up to n
// vertices.
func padded(t testing.TB, g *graph.Graph, n int) *graph.Graph {
	t.Helper()
	unused := graph.Label(0)
	for _, l := range g.Labels() {
		unused = max(unused, l+1)
	}
	labels := slices.Clone(g.Labels())
	for len(labels) < n {
		labels = append(labels, unused)
	}
	p, err := graph.FromEdges(labels, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corpus is one kind of small data graph with queries drawn from it.
type corpus struct {
	db      *graph.Database
	queries []*graph.Graph
}

// smallCorpora returns the two kinds of small data graphs the benchmark
// serves — label-poor synthetic ones (3 labels, degree 6) and label-rich
// AIDS-like ones — each with random-walk and BFS queries drawn from it.
func smallCorpora(t testing.TB) map[string]corpus {
	t.Helper()
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 10, NumVertices: 60, NumLabels: 3, Degree: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.0015, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]corpus{}
	for name, db := range map[string]*graph.Database{"syn-like": syn, "AIDS-like": aids} {
		var queries []*graph.Graph
		for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
			qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 5, Edges: 6 + 10*(1-i), Method: m, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, qs...)
		}
		out[name] = corpus{db, queries}
	}
	return out
}

// stagesOf strips what legitimately differs between a graph and its padded
// twin (|V(G)|) from an Explain's stage funnel.
func stagesOf(ex *obs.Explain) []obs.StageStats {
	stages := ex.Snapshot().Stages
	for i := range stages {
		stages[i].NDataSum = 0
	}
	return stages
}

// sameRun reports how two enumeration results differ in what the two paths
// must agree on; the intersection counters are compared by the caller.
func sameRun(w, l Result) error {
	if w.Embeddings != l.Embeddings || w.Steps != l.Steps || w.Jumps != l.Jumps || w.Redos != l.Redos ||
		w.Aborted != l.Aborted || w.Stopped != l.Stopped {
		return fmt.Errorf("word path %+v, list path %+v", w, l)
	}
	if w.ProbeIsects+w.MergeIsects != 0 || l.WordIsects != 0 || w.WordIsects != l.ProbeIsects+l.MergeIsects {
		return fmt.Errorf("the pair did not run one side on each path: word %+v, list %+v", w, l)
	}
	return nil
}

// enumerateBoth runs one enumeration per path and returns the word path's
// result after checking it against the list path's, embeddings included.
func enumerateBoth(t *testing.T, at string, q, g, gp *graph.Graph, cw, cl *Candidates, order []graph.VertexID, opts Options, sw, sl *Scratch) Result {
	t.Helper()
	var seenW, seenL [][]graph.VertexID
	collect := func(into *[][]graph.VertexID) func([]graph.VertexID) bool {
		return func(m []graph.VertexID) bool {
			if len(*into) < 64 {
				*into = append(*into, slices.Clone(m))
			}
			return true
		}
	}
	ow, ol := opts, opts
	ow.Scratch, ow.OnEmbedding = sw, collect(&seenW)
	ol.Scratch, ol.OnEmbedding = sl, collect(&seenL)
	rw, err := Enumerate(q, g, cw, order, ow)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Enumerate(q, gp, cl, order, ol)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRun(rw, rl); err != nil {
		t.Fatalf("%s %+v: %v", at, opts, err)
	}
	if !slices.EqualFunc(seenW, seenL, func(a, b []graph.VertexID) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s %+v: embeddings reported in a different order: %v vs %v", at, opts, seenW, seenL)
	}
	return rw
}

// TestWordPathMatchesPaddedListPath: per (query, graph) pair of both
// corpora, the two filters build the same sets and the same Explain funnel,
// the two orders come out the same, and the enumeration — first match,
// exhaustive under a step budget that some pairs exhaust, and exhaustive
// under one none does — takes the same steps, backjumps and dead ends to the
// same embeddings in the same order.
func TestWordPathMatchesPaddedListPath(t *testing.T) {
	for name, c := range smallCorpora(t) {
		sw, sl := NewScratch(), NewScratch()
		passed, aborted, jumped := 0, 0, uint64(0)
		for gid := 0; gid < c.db.Len(); gid++ {
			g := c.db.Graph(gid)
			if !domain.UseWords(1, g.NumVertices()) {
				t.Fatalf("%s g%d has %d vertices: not a word-path graph", name, gid, g.NumVertices())
			}
			gp := padded(t, g, domain.WordVertices+1)
			for qi, q := range c.queries {
				at := fmt.Sprintf("%s q%d g%d", name, qi, gid)
				var cw, cl *Candidates
				for _, f := range []struct {
					name   string
					filter func(q, g *graph.Graph, opts FilterOptions) *Candidates
				}{{"CFLFilterTopDownOnly", CFLFilterTopDownOnly}, {"CFLFilter", CFLFilter}} {
					exW, exL := obs.NewExplain(), obs.NewExplain()
					cw = f.filter(q, g, FilterOptions{Scratch: sw, Explain: exW})
					cl = f.filter(q, gp, FilterOptions{Scratch: sl, Explain: exL})
					if cw.Aborted || cl.Aborted {
						t.Fatalf("%s %s: aborted without a deadline", at, f.name)
					}
					for u := range cl.Sets {
						if !slices.Equal(cw.Sets[u], cl.Sets[u]) {
							t.Fatalf("%s %s: Φ(%d) = %v on words, %v on lists", at, f.name, u, cw.Sets[u], cl.Sets[u])
						}
					}
					if w, l := stagesOf(exW), stagesOf(exL); fmt.Sprint(w) != fmt.Sprint(l) {
						t.Fatalf("%s %s: Explain stages %v on words, %v on lists", at, f.name, w, l)
					}
					dw, dl := exW.Snapshot().DomainRep, exL.Snapshot().DomainRep
					if (dw == nil) != (dl == nil) || dw != nil && (dw.BitsVertices+dw.ChainVertices != 0 ||
						dl.WordVertices != 0 || dw.WordVertices != dl.BitsVertices+dl.ChainVertices) {
						t.Fatalf("%s %s: domain representation %+v on words, %+v on lists", at, f.name, dw, dl)
					}
				}
				if cw.AnyEmpty() {
					continue
				}
				passed++
				for oname, order := range map[string][]graph.VertexID{
					"GraphQL": slices.Clone(GraphQLOrderScratch(q, cw, sw)),
					"CFL":     slices.Clone(CFLOrderScratch(q, g, cw, sw)),
				} {
					listOrder := GraphQLOrderScratch(q, cl, sl)
					if oname == "CFL" {
						listOrder = CFLOrderScratch(q, gp, cl, sl)
					}
					if !slices.Equal(order, listOrder) {
						t.Fatalf("%s: %s order %v on words, %v on lists", at, oname, order, listOrder)
					}
					at := at + " " + oname
					enumerateBoth(t, at, q, g, gp, cw, cl, order, Options{Limit: 1}, sw, sl)
					if enumerateBoth(t, at, q, g, gp, cw, cl, order, Options{StepBudget: 300}, sw, sl).Aborted {
						aborted++
					}
					jumped += enumerateBoth(t, at, q, g, gp, cw, cl, order, Options{StepBudget: 200000}, sw, sl).Jumps
				}
			}
		}
		t.Logf("%s: %d pairs passed the filter, %d exhausted the 300-step budget, %d backjumps", name, passed, aborted, jumped)
		if passed == 0 || jumped == 0 || name == "syn-like" && aborted == 0 {
			t.Errorf("%s: the corpus does not exercise the search (passed %d, aborted %d, backjumps %d)", name, passed, aborted, jumped)
		}
	}
}

// hubRing returns a ring of n vertices with chords from the last vertex —
// the hub, vertex 63 of a 64-vertex graph — to every fifth one, and labels
// cycling over three values.
func hubRing(n int) *graph.Graph {
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = graph.Label(i % 3)
	}
	var edges []graph.Edge
	hub := graph.VertexID(n - 1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)})
		if i%5 == 2 && i+2 < n {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: hub})
		}
	}
	if n > 2 {
		edges = append(edges, graph.Edge{U: 0, V: hub})
	}
	return graph.MustFromEdges(labels, edges)
}

// TestWordPathBoundaries: data graphs of 1, 63, 64 and 65 vertices — the
// last natively on the list path — agree with brute force and, up to 64,
// with their padded twin; on the 64-vertex graph vertex 63 is the hub, so it
// is a candidate, a pivot's image and a used vertex blamed on its owner.
func TestWordPathBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for _, n := range []int{1, 63, 64, 65} {
		g := hubRing(n)
		hub := graph.VertexID(n - 1)
		queries := []*graph.Graph{graph.MustFromEdges([]graph.Label{g.Label(hub)}, nil)}
		if n > 1 {
			for i := 0; i < 6; i++ {
				queries = append(queries, randomQueryFrom(r, g, 3+i))
			}
			// The 4-cycle hub-0-1-2-hub: ring edges and the hub's first chord.
			queries = append(queries, graph.MustFromEdges(
				[]graph.Label{g.Label(hub), g.Label(0), g.Label(1), g.Label(2)},
				[]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}}))
		}
		sw, sl := NewScratch(), NewScratch()
		hubAsRoot, hubLater := false, false
		for qi, q := range queries {
			at := fmt.Sprintf("|V(G)|=%d q%d", n, qi)
			cw := CFLFilter(q, g, FilterOptions{Scratch: sw})
			want := bruteForceCount(q, g)
			if cw.AnyEmpty() {
				if want != 0 {
					t.Fatalf("%s: filtered out, brute force finds %d embeddings", at, want)
				}
				continue
			}
			order := slices.Clone(GraphQLOrderScratch(q, cw, sw))
			var res Result
			if domain.UseWords(q.NumVertices(), n) {
				gp := padded(t, g, domain.WordVertices+1)
				cl := CFLFilter(q, gp, FilterOptions{Scratch: sl})
				for u := range cl.Sets {
					if !slices.Equal(cw.Sets[u], cl.Sets[u]) {
						t.Fatalf("%s: Φ(%d) = %v on words, %v on lists", at, u, cw.Sets[u], cl.Sets[u])
					}
				}
				enumerateBoth(t, at, q, g, gp, cw, cl, order, Options{Limit: 1}, sw, sl)
				res = enumerateBoth(t, at, q, g, gp, cw, cl, order, Options{}, sw, sl)
			} else {
				var err error
				if res, err = Enumerate(q, g, cw, order, Options{Scratch: sw}); err != nil {
					t.Fatal(err)
				}
				if res.WordIsects != 0 {
					t.Fatalf("%s: %d word intersections on a %d-vertex graph", at, res.WordIsects, n)
				}
			}
			if res.Embeddings != want {
				t.Fatalf("%s: %d embeddings, brute force finds %d", at, res.Embeddings, want)
			}
			_, err := Enumerate(q, g, cw, order, Options{Scratch: sw, OnEmbedding: func(m []graph.VertexID) bool {
				hubAsRoot = hubAsRoot || m[order[0]] == hub
				hubLater = hubLater || slices.Contains(m, hub) && m[order[0]] != hub
				return true
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		if n > 1 && !(hubAsRoot && hubLater) {
			t.Errorf("|V(G)|=%d: vertex %d matched at the root: %v, below it: %v; want both", n, hub, hubAsRoot, hubLater)
		}
	}
}

// TestWordPathWideQueries: a 64-vertex query uses all 64 positions of the
// conflict word and still matches its padded twin; a 65-vertex query does
// not fit and runs on the list path, against a word-sized graph (which it
// cannot match) and against itself.
func TestWordPathWideQueries(t *testing.T) {
	g := hubRing(64)
	// The query is g without a few chords: a spanning subgraph, so every
	// embedding is a label-preserving bijection.
	edges := g.Edges()
	kept := edges[:0:0]
	for i, e := range edges {
		if e.V != 63 || e.U == 0 || i%2 == 0 {
			kept = append(kept, e)
		}
	}
	q64 := graph.MustFromEdges(g.Labels(), kept)
	gp := padded(t, g, 65)
	sw, sl := NewScratch(), NewScratch()
	cw := CFLFilter(q64, g, FilterOptions{Scratch: sw})
	cl := CFLFilter(q64, gp, FilterOptions{Scratch: sl})
	if cw.AnyEmpty() {
		t.Fatal("the spanning subgraph was filtered out")
	}
	order := slices.Clone(GraphQLOrderScratch(q64, cw, sw))
	if res := enumerateBoth(t, "q64 in g64", q64, g, gp, cw, cl, order, Options{}, sw, sl); res.Embeddings == 0 {
		t.Fatalf("q64 in g64: no embedding: %+v", res)
	}

	q65 := hubRing(65)
	if c := CFLFilter(q65, g, FilterOptions{Scratch: sw}); !c.AnyEmpty() {
		res, err := Enumerate(q65, g, c, GraphQLOrderScratch(q65, c, sw), Options{Scratch: sw})
		if err != nil || res.Embeddings != 0 || res.WordIsects != 0 {
			t.Fatalf("q65 in g64: %+v, %v; want no embedding and no word intersection", res, err)
		}
	}
	c := CFLFilter(q65, q65, FilterOptions{Scratch: sw})
	res, err := Enumerate(q65, q65, c, GraphQLOrderScratch(q65, c, sw), Options{Limit: 1, Scratch: sw})
	if err != nil || res.Embeddings != 1 || res.WordIsects != 0 {
		t.Fatalf("q65 in itself: %+v, %v; want one embedding off the list path", res, err)
	}
}

// TestWordPathZeroAlloc: on a warmed arena the whole per-graph body —
// filter, order, the order's Explain view, first-match enumeration — with an
// Explain attached, as every default-flags query has, allocates nothing on
// either path.
func TestWordPathZeroAlloc(t *testing.T) {
	skipIfDebugInvariants(t)
	c := smallCorpora(t)["syn-like"]
	graphs := []*graph.Graph{c.db.Graph(0), c.db.Graph(1), padded(t, c.db.Graph(2), 65)}
	s, ex := NewScratch(), obs.NewExplain()
	body := func() {
		for _, q := range c.queries {
			for _, g := range graphs {
				cand := CFLFilter(q, g, FilterOptions{Scratch: s, Explain: ex})
				if cand.AnyEmpty() {
					continue
				}
				order := GraphQLOrderScratch(q, cand, s)
				s.ObserveOrder(ex, order, cand)
				r, err := Enumerate(q, g, cand, order, Options{Limit: 1, Scratch: s})
				if err != nil {
					t.Fatal(err)
				}
				ex.ObserveEnumerate(r.Jumps, r.Redos, r.Pruned, r.WordIsects, r.ProbeIsects, r.MergeIsects)
			}
		}
	}
	body() // warm-up: the arena and the Explain's aggregates reach their sizes
	if allocs := testing.AllocsPerRun(10, body); allocs != 0 {
		t.Fatalf("filter + order + enumerate with Explain allocated %v times per run, want 0", allocs)
	}
}

// TestWordPathStops: a past deadline (at the stride's boundary) and a
// closed Cancel still end a word-path filter pass with Aborted set.
func TestWordPathStops(t *testing.T) {
	c := smallCorpora(t)["syn-like"]
	q, g := c.queries[0], c.db.Graph(0)
	closed := make(chan struct{})
	close(closed)
	s := NewScratch()
	if cand := CFLFilter(q, g, FilterOptions{Scratch: s, Cancel: closed}); !cand.Aborted {
		t.Error("closed Cancel: the pass completed")
	}
	s.boundaries = deadlineStride - 1
	if cand := CFLFilter(q, g, FilterOptions{Scratch: s, Deadline: time.Now().Add(-time.Second)}); !cand.Aborted {
		t.Error("past Deadline: the pass completed")
	}
}

// pdbsCorpus returns a dozen PDBS-like chains of 112-187 vertices, on the
// list path by size, with random-walk queries of 8 and 16 edges.
func pdbsCorpus(t testing.TB) corpus {
	t.Helper()
	db, err := gen.Real(gen.PDBS, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*graph.Graph
	for _, edges := range []int{8, 16} {
		qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 5, Edges: edges, Method: gen.QueryRandomWalk, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, qs...)
	}
	return corpus{db, queries}
}

// BenchmarkSmallGraphKernels names the layer a change to the small-graph
// kernels moved: CFL's root selection and the whole CFL filter (ns/graph
// over every query × graph pair)
// and the first-match search (over the pairs that pass the filter,
// candidates and order prepared outside the timer), each on the word path
// and — the same graphs padded to 65 vertices — on the list path, over
// syn-enum-like and AIDS-like inputs, plus the search on PDBS-like graphs,
// list path by size. A search row reports steps/graph beside ns/step and
// ns/graph: a change that prunes takes fewer, costlier steps, and ns/step
// alone would read it as a regression.
func BenchmarkSmallGraphKernels(b *testing.B) {
	for _, name := range []string{"syn-like", "AIDS-like", "PDBS-like"} {
		c, paths := corpus{}, []string{"word", "padded-list"}
		if name == "PDBS-like" {
			c, paths = pdbsCorpus(b), []string{"list"}
		} else {
			c = smallCorpora(b)[name]
		}
		for _, path := range paths {
			graphs := make([]*graph.Graph, c.db.Len())
			for gid := range graphs {
				graphs[gid] = c.db.Graph(gid)
				if path == "padded-list" {
					graphs[gid] = padded(b, graphs[gid], domain.WordVertices+1)
				}
			}
			if path != "list" {
				b.Run(fmt.Sprintf("Root/%s/%s", path, name), func(b *testing.B) {
					s := NewScratch()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, q := range c.queries {
							for _, g := range graphs {
								cflRoot(q, g, s)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.queries)*len(graphs)), "ns/graph")
				})
				b.Run(fmt.Sprintf("Filter/%s/%s", path, name), func(b *testing.B) {
					s := NewScratch()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, q := range c.queries {
							for _, g := range graphs {
								CFLFilter(q, g, FilterOptions{Scratch: s})
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.queries)*len(graphs)), "ns/graph")
				})
			}
			b.Run(fmt.Sprintf("Search/%s/%s", path, name), func(b *testing.B) {
				// One arena per passing pair keeps its candidates alive.
				type pair struct {
					q, g  *graph.Graph
					s     *Scratch
					cand  *Candidates
					order []graph.VertexID
				}
				var pairs []pair
				for _, q := range c.queries {
					for _, g := range graphs {
						s := NewScratch()
						if cand := CFLFilter(q, g, FilterOptions{Scratch: s}); !cand.AnyEmpty() {
							pairs = append(pairs, pair{q, g, s, cand, slices.Clone(GraphQLOrderScratch(q, cand, s))})
						}
					}
				}
				var steps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, p := range pairs {
						r, err := Enumerate(p.q, p.g, p.cand, p.order, Options{Limit: 1, Scratch: p.s})
						if err != nil {
							b.Fatal(err)
						}
						steps += r.Steps
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/graph")
				b.ReportMetric(float64(steps)/float64(b.N*len(pairs)), "steps/graph")
			})
		}
	}
}
