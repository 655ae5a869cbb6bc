package matching

import (
	"math/rand"
	"slices"
	"testing"

	"subgraphquery/internal/graph"
)

// TestScratchFilterEquivalence: filtering and ordering through a shared
// Scratch must produce exactly the candidate sets and orders of the
// scratch-free path, across many graphs reusing one arena — the property
// that makes the arena transparent to the engines.
func TestScratchFilterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := NewScratch()
	for trial := 0; trial < 120; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(16), r.Intn(20), 1+r.Intn(4))
		q := randomQueryFrom(r, g, 1+r.Intn(7))

		for name, run := range map[string]func(opts FilterOptions) *Candidates{
			"CFL":     func(opts FilterOptions) *Candidates { return CFLFilter(q, g, opts) },
			"GraphQL": func(opts FilterOptions) *Candidates { return GraphQLFilter(q, g, opts) },
		} {
			plain := run(FilterOptions{})
			pooled := run(FilterOptions{Scratch: s})
			for u := 0; u < q.NumVertices(); u++ {
				uu := graph.VertexID(u)
				if !slices.Equal(plain.Sets[uu], pooled.Sets[uu]) {
					t.Fatalf("trial %d: %s Sets[%d] differ with scratch: %v vs %v",
						trial, name, u, pooled.Sets[uu], plain.Sets[uu])
				}
			}
			// Orders depend only on the candidate sets (and the graphs),
			// so they must agree too.
			var plainOrder, pooledOrder []graph.VertexID
			if name == "CFL" {
				plainOrder = CFLOrder(q, g, plain)
				pooledOrder = CFLOrderScratch(q, g, pooled, s)
			} else {
				plainOrder = GraphQLOrder(q, plain)
				pooledOrder = GraphQLOrderScratch(q, pooled, s)
			}
			if !slices.Equal(plainOrder, pooledOrder) {
				t.Fatalf("trial %d: %s order differs with scratch: %v vs %v",
					trial, name, pooledOrder, plainOrder)
			}
		}
	}
}

// TestScratchEnumerateEquivalence: enumeration through a shared Scratch
// must count exactly the embeddings of the scratch-free path.
func TestScratchEnumerateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	s := NewScratch()
	for trial := 0; trial < 120; trial++ {
		g := randomConnectedGraph(r, 4+r.Intn(14), r.Intn(18), 1+r.Intn(4))
		q := randomQueryFrom(r, g, 1+r.Intn(6))

		cand := CFLFilter(q, g, FilterOptions{})
		if cand.AnyEmpty() {
			continue
		}
		order := GraphQLOrder(q, cand)
		plain, err := Enumerate(q, g, cand, order, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Enumerate(q, g, cand, order, Options{Scratch: s})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Embeddings != pooled.Embeddings {
			t.Fatalf("trial %d: embeddings differ with scratch: %d vs %d",
				trial, pooled.Embeddings, plain.Embeddings)
		}
	}
}

// TestScratchPoolReuse: acquire/release must hand back a usable arena (the
// pool may or may not recycle the same object; both are correct).
func TestScratchPoolReuse(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := randomConnectedGraph(r, 20, 30, 3)
	q := randomQueryFrom(r, g, 5)
	want := CFLFilter(q, g, FilterOptions{})
	for i := 0; i < 10; i++ {
		s := AcquireScratch()
		got := CFLFilter(q, g, FilterOptions{Scratch: s})
		for u := 0; u < q.NumVertices(); u++ {
			uu := graph.VertexID(u)
			if !slices.Equal(got.Sets[uu], want.Sets[uu]) {
				t.Fatalf("round %d: Sets[%d] = %v, want %v", i, u, got.Sets[uu], want.Sets[uu])
			}
		}
		ReleaseScratch(s)
	}
}

// skipIfDebugInvariants: the sqdebug invariant checkers snapshot candidate
// sets to verify refinement monotonicity, which allocates by design — the
// zero-alloc contract applies to production builds only.
func skipIfDebugInvariants(t *testing.T) {
	t.Helper()
	if debugInvariants {
		t.Skip("sqdebug invariant checks allocate; zero-alloc contract is for production builds")
	}
}

// TestCFLFilterZeroAlloc is the PR's acceptance property: with a shared
// Scratch, the steady-state per-data-graph filter allocates nothing. The
// warm-up pass sizes every grow-only buffer; the measured passes then reuse
// the footprint.
func TestCFLFilterZeroAlloc(t *testing.T) {
	skipIfDebugInvariants(t)
	r := rand.New(rand.NewSource(45))
	// A few graphs of different sizes, largest first seen during warm-up,
	// so steady state exercises both shrink and regrow of the arena.
	graphs := []*graph.Graph{
		randomConnectedGraph(r, 120, 200, 4),
		randomConnectedGraph(r, 40, 60, 4),
		randomConnectedGraph(r, 80, 120, 4),
	}
	q := randomQueryFrom(r, graphs[0], 6)
	s := NewScratch()
	for _, g := range graphs { // warm-up: grow the arena to its high-water mark
		CFLFilter(q, g, FilterOptions{Scratch: s})
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, g := range graphs {
			cand := CFLFilter(q, g, FilterOptions{Scratch: s})
			if cand.Aborted {
				t.Fatal("unexpected abort")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CFLFilter allocated %v times per run, want 0", allocs)
	}
}

// TestGraphQLFilterZeroAlloc: same property for the GraphQL filter, whose
// refinement stage exercises the bipartite matcher and adjacency rows.
func TestGraphQLFilterZeroAlloc(t *testing.T) {
	skipIfDebugInvariants(t)
	r := rand.New(rand.NewSource(46))
	graphs := []*graph.Graph{
		randomConnectedGraph(r, 100, 160, 3),
		randomConnectedGraph(r, 50, 80, 3),
	}
	q := randomQueryFrom(r, graphs[0], 5)
	s := NewScratch()
	for _, g := range graphs {
		GraphQLFilter(q, g, FilterOptions{Scratch: s})
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, g := range graphs {
			GraphQLFilter(q, g, FilterOptions{Scratch: s})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state GraphQLFilter allocated %v times per run, want 0", allocs)
	}
}

// TestEnumerateZeroAllocSteadyState: the full per-graph pipeline — filter,
// order, enumerate to the first embedding — allocates nothing in steady
// state with a shared arena. This is the loop body of core's vcFV engines.
func TestEnumerateZeroAllocSteadyState(t *testing.T) {
	skipIfDebugInvariants(t)
	r := rand.New(rand.NewSource(47))
	g := randomConnectedGraph(r, 80, 140, 3)
	q := randomQueryFrom(r, g, 5)
	s := NewScratch()
	pipeline := func() {
		cand := CFLFilter(q, g, FilterOptions{Scratch: s})
		if cand.AnyEmpty() {
			return
		}
		order := GraphQLOrderScratch(q, cand, s)
		if _, err := Enumerate(q, g, cand, order, Options{Limit: 1, Scratch: s}); err != nil {
			t.Fatal(err)
		}
		// The same pair through Matcher.Run, as the engines and the result
		// cache's probes drive the catalogue's filter-then-order matchers.
		// CFL is not among them: CFLOrderScratch still collects its
		// root-to-leaf paths on the heap, about 35 allocations per call here.
		for _, m := range []Matcher{GraphQL, CFQL} {
			if !m.FindFirst(q, g, Options{Scratch: s}).Found() {
				t.Fatalf("%s found no embedding of a query drawn from the graph", m.Name)
			}
		}
	}
	pipeline() // warm-up
	if allocs := testing.AllocsPerRun(50, pipeline); allocs != 0 {
		t.Fatalf("steady-state filter+order+enumerate allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkScratchPipeline measures the per-graph loop body of the vcFV
// engines — filter, order, enumerate-first — with a pooled arena versus
// the allocate-per-call path. The allocs/op column is the contract: 0 for
// the pooled variant.
func BenchmarkScratchPipeline(bm *testing.B) {
	r := rand.New(rand.NewSource(49))
	g := randomConnectedGraph(r, 80, 140, 3)
	q := randomQueryFrom(r, g, 5)

	run := func(bm *testing.B, s *Scratch) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			cand := CFLFilter(q, g, FilterOptions{Scratch: s})
			if cand.AnyEmpty() {
				continue
			}
			var order []graph.VertexID
			if s != nil {
				order = GraphQLOrderScratch(q, cand, s)
			} else {
				order = GraphQLOrder(q, cand)
			}
			if _, err := Enumerate(q, g, cand, order, Options{Limit: 1, Scratch: s}); err != nil {
				bm.Fatal(err)
			}
		}
	}
	bm.Run("pooled", func(bm *testing.B) {
		s := NewScratch()
		run(bm, s) // first iteration warms the arena; N amortizes it away
	})
	bm.Run("private", func(bm *testing.B) {
		run(bm, nil)
	})
}

// TestCandidatesMemoryAccounting: MemoryFootprint reports live bytes only,
// ReservedBytes at least as much, and a small query on a big arena must not
// inherit the big query's live cost.
func TestCandidatesMemoryAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	big := randomConnectedGraph(r, 200, 300, 3)
	small := randomConnectedGraph(r, 10, 12, 3)
	q := randomQueryFrom(r, big, 6)
	s := NewScratch()

	candBig := CFLFilter(q, big, FilterOptions{Scratch: s})
	liveBig := candBig.MemoryFootprint()
	if liveBig <= 0 {
		t.Fatalf("big-graph live footprint = %d, want > 0", liveBig)
	}
	if rb := candBig.ReservedBytes(); rb < liveBig {
		t.Fatalf("ReservedBytes %d < MemoryFootprint %d", rb, liveBig)
	}

	qs := randomQueryFrom(r, small, 2)
	candSmall := CFLFilter(qs, small, FilterOptions{Scratch: s})
	liveSmall := candSmall.MemoryFootprint()
	if liveSmall >= liveBig {
		t.Fatalf("small-graph live footprint %d not below big-graph %d despite arena reuse", liveSmall, liveBig)
	}
	if rb := candSmall.ReservedBytes(); rb < liveBig {
		// The arena still pins the big graph's storage; reserved must say so.
		t.Fatalf("ReservedBytes %d lost the pinned high-water mark %d", rb, liveBig)
	}
}
