package index

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// indexes returns a fresh instance of every index under test: the
// catalogue, and Grapes once more to be built on a pool.
func indexes() map[string]Index {
	ixs := map[string]Index{"Grapes-parallel": NewGrapes()}
	for _, mk := range Catalogue {
		ix := mk()
		ixs[ix.Name()] = ix
	}
	return ixs
}

func buildOpts(name string) BuildOptions {
	if name == "Grapes-parallel" {
		return BuildOptions{Workers: 6}
	}
	return BuildOptions{}
}

// randomDB builds a small random database and a query drawn from one of its
// graphs (so the answer set is non-empty).
func randomDB(r *rand.Rand, graphs, size, labels int) *graph.Database {
	gs := make([]*graph.Graph, graphs)
	for i := range gs {
		gs[i] = randomConnected(r, 2+r.Intn(size), r.Intn(2*size), labels)
	}
	return graph.NewDatabase(gs)
}

func randomConnected(r *rand.Rand, n, extra, labels int) *graph.Graph {
	lab := make([]graph.Label, n)
	for i := range lab {
		lab[i] = graph.Label(r.Intn(labels))
	}
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	add := func(u, v graph.VertexID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]graph.VertexID{u, v}] {
			seen[[2]graph.VertexID{u, v}] = true
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for v := 1; v < n; v++ {
		add(graph.VertexID(r.Intn(v)), graph.VertexID(v))
	}
	for i := 0; i < extra; i++ {
		add(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
	}
	return graph.MustFromEdges(lab, edges)
}

// walkQuery extracts a connected query from g by random walk.
func walkQuery(r *rand.Rand, g *graph.Graph, qEdges int) *graph.Graph {
	start := graph.VertexID(r.Intn(g.NumVertices()))
	ids := map[graph.VertexID]graph.VertexID{start: 0}
	labels := []graph.Label{g.Label(start)}
	seen := map[[2]graph.VertexID]bool{}
	var edges []graph.Edge
	cur := start
	for steps := 0; len(edges) < qEdges && steps < 20*qEdges+40; steps++ {
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		next := nbrs[r.Intn(len(nbrs))]
		a, b := cur, next
		if a > b {
			a, b = b, a
		}
		if !seen[[2]graph.VertexID{a, b}] {
			seen[[2]graph.VertexID{a, b}] = true
			if _, ok := ids[next]; !ok {
				ids[next] = graph.VertexID(len(labels))
				labels = append(labels, g.Label(next))
			}
			edges = append(edges, graph.Edge{U: ids[cur], V: ids[next]})
		}
		cur = next
	}
	if len(edges) == 0 {
		return graph.MustFromEdges([]graph.Label{g.Label(start)}, nil)
	}
	return graph.MustFromEdges(labels, edges)
}

// trueAnswers computes the exact answer set by subgraph isomorphism tests.
func trueAnswers(db *graph.Database, q *graph.Graph) map[int]bool {
	out := map[int]bool{}
	for i := 0; i < db.Len(); i++ {
		if (&matching.VF2{}).FindFirst(q, db.Graph(i), matching.Options{}).Found() {
			out[i] = true
		}
	}
	return out
}

// TestIndexCompleteness is the core IFV correctness property: the candidate
// set returned by every index must be a superset of the true answer set.
func TestIndexCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		db := randomDB(r, 6+r.Intn(6), 8, 1+r.Intn(4))
		for name, ix := range indexes() {
			if err := ix.Build(db, buildOpts(name)); err != nil {
				t.Fatalf("%s build: %v", name, err)
			}
			for k := 0; k < 4; k++ {
				src := db.Graph(r.Intn(db.Len()))
				q := walkQuery(r, src, 1+r.Intn(5))
				want := trueAnswers(db, q)
				got := map[int]bool{}
				for _, id := range ix.Filter(q) {
					got[id] = true
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("trial %d: %s filtered out true answer graph %d for query %v",
							trial, name, id, q)
					}
				}
			}
		}
	}
}

func TestFilterReturnsSortedUniqueIDs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	db := randomDB(r, 10, 8, 2)
	q := walkQuery(r, db.Graph(0), 2)
	for name, ix := range indexes() {
		if err := ix.Build(db, buildOpts(name)); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		ids := ix.Filter(q)
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("%s: ids not sorted/unique: %v", name, ids)
			}
		}
		for _, id := range ids {
			if id < 0 || id >= db.Len() {
				t.Fatalf("%s: id %d out of range", name, id)
			}
		}
	}
}

// TestGrapesNoWeakerThanGGSX: Grapes filters on occurrence counts, GGSX on
// presence only, so with the same path length Grapes candidates ⊆ GGSX
// candidates.
func TestGrapesNoWeakerThanGGSX(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	db := randomDB(r, 14, 9, 2)
	grapes := NewGrapes()
	var ggsx GGSX
	if err := grapes.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ggsx.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(5))
		gSet := map[int]bool{}
		for _, id := range ggsx.Filter(q) {
			gSet[id] = true
		}
		for _, id := range grapes.Filter(q) {
			if !gSet[id] {
				t.Fatalf("Grapes admitted %d that GGSX rejected (query %v)", id, q)
			}
		}
	}
}

func TestMissingLabelFiltersEverything(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	db := randomDB(r, 5, 6, 2) // labels 0..1 only
	q := graph.MustFromEdges([]graph.Label{9, 9}, []graph.Edge{{U: 0, V: 1}})
	for name, ix := range indexes() {
		if err := ix.Build(db, buildOpts(name)); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		if got := ix.Filter(q); len(got) != 0 {
			t.Errorf("%s: query with absent label produced candidates %v", name, got)
		}
	}
}

func TestBuildBudgetMaxFeatures(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	db := randomDB(r, 8, 10, 2)
	for name, ix := range indexes() {
		opts := buildOpts(name)
		opts.MaxFeatures = 10
		if err := ix.Build(db, opts); err != ErrBudget {
			t.Errorf("%s: Build with tiny MaxFeatures = %v, want ErrBudget", name, err)
		}
	}
}

func TestBuildBudgetDeadline(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	// Dense-ish database so enumeration takes more than 0 time.
	gs := make([]*graph.Graph, 20)
	for i := range gs {
		gs[i] = randomConnected(r, 40, 200, 2)
	}
	db := graph.NewDatabase(gs)
	for name, ix := range indexes() {
		opts := buildOpts(name)
		opts.Deadline = time.Now().Add(-time.Second) // already expired
		if err := ix.Build(db, opts); err != ErrBudget {
			t.Errorf("%s: Build with expired deadline = %v, want ErrBudget", name, err)
		}
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	db := randomDB(r, 6, 6, 2)
	for name, ix := range indexes() {
		if err := ix.Build(db, buildOpts(name)); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		if ix.MemoryFootprint() <= 0 {
			t.Errorf("%s: MemoryFootprint = %d, want > 0", name, ix.MemoryFootprint())
		}
	}
}

func TestGrapesParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	db := randomDB(r, 16, 8, 3)
	seq, par := NewGrapes(), NewGrapes()
	if err := seq.Build(db, BuildOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := par.Build(db, BuildOptions{Workers: 6}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 15; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(4))
		a, b := seq.Filter(q), par.Filter(q)
		if len(a) != len(b) {
			t.Fatalf("parallel build differs: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("parallel build differs: %v vs %v", a, b)
			}
		}
	}
}

// TestFilterBeforeBuild: probing an unbuilt index returns no candidates
// instead of panicking.
func TestFilterBeforeBuild(t *testing.T) {
	q := graph.MustFromEdges([]graph.Label{0, 1}, []graph.Edge{{U: 0, V: 1}})
	for name, ix := range indexes() {
		if got := ix.Filter(q); len(got) != 0 {
			t.Errorf("%s: Filter before Build returned %v", name, got)
		}
	}
}

func TestSingleVertexQuery(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	db := randomDB(r, 8, 6, 3)
	q := graph.MustFromEdges([]graph.Label{1}, nil)
	want := trueAnswers(db, q)
	for name, ix := range indexes() {
		if err := ix.Build(db, buildOpts(name)); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		got := ix.Filter(q)
		for id := range want {
			found := false
			for _, g := range got {
				if g == id {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: dropped answer %d for single-vertex query", name, id)
			}
		}
	}
}

// TestPathProbesRepeatAndAgree: the path indexes walk a query's paths in a
// fixed order and intersect shortest list first, so two probes of one query
// report identical IndexProbes (wall time aside), and the survivors are
// exactly the graphs that hold every path feature of the query often enough
// — what intersecting in any order from all of D gives.
func TestPathProbesRepeatAndAgree(t *testing.T) {
	for dbName, c := range probeCorpora(t) {
		db, queries := c.db, c.queries
		for ixName, ix := range map[string]interface {
			Index
			Explainable
		}{"GGSX": &GGSX{}, "Grapes": NewGrapes()} {
			if err := ix.Build(db, BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			maxLen, counted := DefaultMaxPathLength, ixName == "Grapes"
			for qi, q := range queries {
				var probes [2]obs.IndexProbe
				var got []int
				for i := range probes {
					ex := obs.NewExplain()
					got = ix.FilterExplain(q, ex)
					probes[i] = ex.Snapshot().IndexProbes[0]
					probes[i].DurationUS = 0
				}
				if !reflect.DeepEqual(probes[0], probes[1]) {
					t.Errorf("%s %s q%d: two probes differ:\n%+v\n%+v", dbName, ixName, qi, probes[0], probes[1])
				}

				var want []int
				need := countPaths(q, maxLen)
				for gid := 0; gid < db.Len(); gid++ {
					have := countPaths(db.Graph(gid), maxLen)
					ok := true
					for key, n := range need {
						if have[key] == 0 || (counted && have[key] < n) {
							ok = false
						}
					}
					if ok {
						want = append(want, gid)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s q%d: survivors %v, want %v", dbName, ixName, qi, got, want)
				}
			}
		}
	}
}
