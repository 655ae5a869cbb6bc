// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced scale: one Benchmark per experiment, with sub-benchmarks per
// engine where the experiment compares engines. The cmd/sqbench tool runs
// the same experiments at configurable scale with full rendered output;
// these benches provide `go test -bench` visibility into the identical
// code paths (plus allocation counts via -benchmem).
package subgraphquery_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
)

// fixtures are generated once and shared; generation cost is kept out of
// benchmark loops.
var (
	fixOnce sync.Once
	fixAIDS *graph.Database // AIDS-like molecule database
	fixPPI  *graph.Database // PPI-like large networks
	fixSyn  *graph.Database // default synthetic configuration, scaled
	fixQ8S  []*graph.Graph  // sparse queries on fixAIDS
	fixQ8D  []*graph.Graph  // dense queries on fixAIDS
	fixPPIQ []*graph.Graph  // sparse queries on fixPPI
	fixSynQ []*graph.Graph  // sparse queries on fixSyn
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		var err error
		fixAIDS, err = gen.Real(gen.AIDS, 0.01, 1) // 400 molecules
		if err != nil {
			panic(err)
		}
		fixPPI, err = gen.Real(gen.PPI, 0.08, 1) // 4 networks, ~300 vertices
		if err != nil {
			panic(err)
		}
		fixSyn, err = gen.Synthetic(gen.SyntheticConfig{
			NumGraphs: 100, NumVertices: 60, NumLabels: 20, Degree: 8, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		fixQ8S = mustQueries(fixAIDS, 8, gen.QueryRandomWalk)
		fixQ8D = mustQueries(fixAIDS, 8, gen.QueryBFS)
		fixPPIQ = mustQueries(fixPPI, 16, gen.QueryRandomWalk)
		fixSynQ = mustQueries(fixSyn, 8, gen.QueryRandomWalk)
	})
}

func mustQueries(db *graph.Database, edges int, m gen.QueryMethod) []*graph.Graph {
	qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 5, Edges: edges, Method: m, Seed: 3})
	if err != nil {
		panic(err)
	}
	return qs
}

// builtEngine constructs and builds an engine on db, failing the benchmark
// on error.
func builtEngine(b *testing.B, name string, db *graph.Database) core.Engine {
	b.Helper()
	e, err := bench.NewEngine(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Build(db, core.BuildOptions{Workers: 6}); err != nil {
		b.Fatalf("%s build: %v", name, err)
	}
	return e
}

// runWorkload executes every query and returns aggregate answers (to keep
// the compiler from eliding work).
func runWorkload(e core.Engine, queries []*graph.Graph) int {
	total := 0
	for _, q := range queries {
		res := e.Query(q, core.QueryOptions{Workers: 1})
		total += len(res.Answers)
	}
	return total
}

// --- Table V: query set statistics -------------------------------------

func BenchmarkTableV_QuerySetGeneration(b *testing.B) {
	fixtures(b)
	for _, mcase := range []struct {
		name string
		m    gen.QueryMethod
	}{{"Sparse", gen.QueryRandomWalk}, {"Dense", gen.QueryBFS}} {
		b.Run(mcase.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qs, err := gen.QuerySet(fixAIDS, gen.QuerySetConfig{
					Count: 10, Edges: 8, Method: mcase.m, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = gen.ComputeQuerySetStats(qs)
			}
		})
	}
}

// --- Table VI / Table VIII: indexing time ------------------------------

func benchmarkIndexBuild(b *testing.B, db *graph.Database) {
	for _, name := range []string{"Grapes", "GGSX", "CT-Index"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := bench.NewEngine(name)
				if err != nil {
					b.Fatal(err)
				}
				err = e.Build(db, core.BuildOptions{
					Workers:  6,
					Deadline: time.Now().Add(60 * time.Second),
				})
				if err != nil {
					b.Skipf("%s: OOT at this scale: %v", name, err)
				}
			}
		})
	}
}

func BenchmarkTableVI_IndexingTimeReal(b *testing.B) {
	fixtures(b)
	benchmarkIndexBuild(b, fixAIDS)
}

func BenchmarkTableVIII_IndexingTimeSynthetic(b *testing.B) {
	fixtures(b)
	benchmarkIndexBuild(b, fixSyn)
}

// --- Figure 2 (real) / Figure 8 (synthetic): filtering precision --------
// The computed quantity is the candidate set; precision follows from it.

func benchmarkFiltering(b *testing.B, db *graph.Database, queries []*graph.Graph, engines []string) {
	for _, name := range engines {
		b.Run(name, func(b *testing.B) {
			e := builtEngine(b, name, db)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if runWorkload(e, queries) == 0 {
					b.Fatal("no answers; queries are drawn from the database")
				}
			}
		})
	}
}

func BenchmarkFig2_FilteringPrecisionReal(b *testing.B) {
	fixtures(b)
	benchmarkFiltering(b, fixAIDS, fixQ8S, []string{"Grapes", "GGSX", "CT-Index", "CFL", "GraphQL", "CFQL", "vcGrapes", "vcGGSX"})
}

func BenchmarkFig8_FilteringPrecisionSynthetic(b *testing.B) {
	fixtures(b)
	benchmarkFiltering(b, fixSyn, fixSynQ, bench.SyntheticQueryEngines)
}

// --- Figure 3 (real) / Figure 9 (synthetic): filtering time -------------
// Isolates the Filter phase: candidate-set construction per data graph.

func BenchmarkFig3_FilteringTimeReal(b *testing.B) {
	fixtures(b)
	benchFilterPhase(b, fixAIDS, fixQ8S)
}

func BenchmarkFig9_FilteringTimeSynthetic(b *testing.B) {
	fixtures(b)
	benchFilterPhase(b, fixSyn, fixSynQ)
}

func benchFilterPhase(b *testing.B, db *graph.Database, queries []*graph.Graph) {
	filters := map[string]func(q, g *graph.Graph) bool{
		"CFL": func(q, g *graph.Graph) bool {
			return !matching.CFLFilter(q, g, matching.FilterOptions{}).AnyEmpty()
		},
		"GraphQL": func(q, g *graph.Graph) bool {
			return !matching.GraphQLFilter(q, g, matching.FilterOptions{}).AnyEmpty()
		},
	}
	for name, filter := range filters {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pass := 0
				for _, q := range queries {
					for gi := 0; gi < db.Len(); gi++ {
						if filter(q, db.Graph(gi)) {
							pass++
						}
					}
				}
				if pass == 0 {
					b.Fatal("filter rejected everything")
				}
			}
		})
	}
}

// --- Figure 4: verification time / Figure 5: per-SI-test time -----------
// The verification gap: VF2 (IFV) versus the preprocessing-enumeration
// matchers (vcFV), on the verification-bound PPI-like dataset.

func BenchmarkFig4_VerificationTimeReal(b *testing.B) {
	fixtures(b)
	for _, name := range []string{"Scan-VF2", "GraphQL", "CFQL"} {
		b.Run(name, func(b *testing.B) {
			e := builtEngine(b, name, fixPPI)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if runWorkload(e, fixPPIQ) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

func BenchmarkFig5_PerSITestTime(b *testing.B) {
	fixtures(b)
	// The paper's per-SI-test gap shows on *hard* tests: graphs that do
	// not contain the query (or where the first match is deep). Run every
	// query against every PPI graph — most pairs are non-matches that VF2
	// must refute exhaustively while CFL's filtering rejects them early.
	opts := sq.MatchOptions{StepBudget: 50_000_000}
	matchers := map[string]sq.Matcher{
		"VF2":  sq.NewVF2Matcher(),
		"CFQL": sq.NewCFQLMatcher(),
	}
	for name, m := range matchers {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tests, found := 0, 0
				for _, q := range fixPPIQ {
					for gi := 0; gi < fixPPI.Len(); gi++ {
						if m.FindFirst(q, fixPPI.Graph(gi), opts).Found() {
							found++
						}
						tests++
					}
				}
				if found == 0 {
					b.Fatal("queries are drawn from the database; some must match")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tests)/1e3, "µs/SItest")
			}
		})
	}
}

// --- Figure 6: candidate counts ------------------------------------------

func BenchmarkFig6_CandidateCounts(b *testing.B) {
	fixtures(b)
	for _, name := range []string{"Grapes", "CFQL"} {
		b.Run(name, func(b *testing.B) {
			e := builtEngine(b, name, fixAIDS)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands := 0
				for _, q := range fixQ8D {
					cands += e.Query(q, core.QueryOptions{Workers: 1}).Candidates
				}
				if cands == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// --- Figure 7: query time -------------------------------------------------

func BenchmarkFig7_QueryTime(b *testing.B) {
	fixtures(b)
	for _, name := range []string{"CT-Index", "Grapes", "GGSX", "CFQL", "vcGrapes", "vcGGSX"} {
		b.Run(name, func(b *testing.B) {
			e := builtEngine(b, name, fixAIDS)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runWorkload(e, fixQ8S)
				runWorkload(e, fixQ8D)
			}
		})
	}
}

// --- Table VII / Table IX: memory cost ------------------------------------

func BenchmarkTableVII_MemoryCostReal(b *testing.B) {
	fixtures(b)
	benchMemory(b, fixAIDS, fixQ8S)
}

func BenchmarkTableIX_MemoryCostSynthetic(b *testing.B) {
	fixtures(b)
	benchMemory(b, fixSyn, fixSynQ)
}

// --- Ablations (DESIGN.md): design-choice benchmarks beyond the paper ----

// BenchmarkAblation_CFLBottomUp isolates CFL's bottom-up refinement pass:
// filter cost with and without it over the same workload.
func BenchmarkAblation_CFLBottomUp(b *testing.B) {
	fixtures(b)
	variants := map[string]func(q, g *graph.Graph) *matching.Candidates{
		"Full": func(q, g *graph.Graph) *matching.Candidates {
			return matching.CFLFilter(q, g, matching.FilterOptions{})
		},
		"TopDownOnly": func(q, g *graph.Graph) *matching.Candidates {
			return matching.CFLFilterTopDownOnly(q, g, matching.FilterOptions{})
		},
	}
	for name, filter := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range fixQ8S {
					for gi := 0; gi < fixAIDS.Len(); gi++ {
						total += filter(q, fixAIDS.Graph(gi)).TotalSize()
					}
				}
				if total == 0 {
					b.Fatal("filters produced no candidates")
				}
			}
		})
	}
}

// BenchmarkAblation_GraphQLRefinement isolates GraphQL's pseudo-isomorphism
// pruning: profile-only versus refined.
func BenchmarkAblation_GraphQLRefinement(b *testing.B) {
	fixtures(b)
	for _, rounds := range []struct {
		name string
		n    int
	}{{"ProfileOnly", -1}, {"Refined", 3}} {
		b.Run(rounds.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range fixQ8S {
					for gi := 0; gi < fixAIDS.Len(); gi++ {
						total += matching.GraphQLFilter(q, fixAIDS.Graph(gi), matching.FilterOptions{Rounds: rounds.n}).TotalSize()
					}
				}
				if total == 0 {
					b.Fatal("filters produced no candidates")
				}
			}
		})
	}
}

// BenchmarkAblation_ParallelVcFV compares the paper's single-threaded CFQL
// with the worker-pool extension.
func BenchmarkAblation_ParallelVcFV(b *testing.B) {
	fixtures(b)
	engines := map[string]core.Engine{
		"Sequential": core.NewCFQL(),
		"Parallel6":  core.NewParallelCFQL(6),
	}
	for name, e := range engines {
		if err := e.Build(fixAIDS, core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range fixQ8S {
					total += len(e.Query(q, core.QueryOptions{}).Answers)
				}
				if total == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkAblation_ResultCache measures the GraphCache-style wrapper on a
// repetitive workload (each query issued twice): the second pass verifies
// only the previous answer set.
func BenchmarkAblation_ResultCache(b *testing.B) {
	fixtures(b)
	engines := map[string]func() core.Engine{
		"Plain":  core.NewCFQL,
		"Cached": func() core.Engine { return core.NewCached(core.NewCFQL(), 32) },
	}
	for name, mk := range engines {
		b.Run(name, func(b *testing.B) {
			e := mk()
			if err := e.Build(fixAIDS, core.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for pass := 0; pass < 2; pass++ {
					for _, q := range fixQ8S {
						total += len(e.Query(q, core.QueryOptions{}).Answers)
					}
				}
				if total == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// aidsQueries draws perSet Q4-Q32 sparse and dense queries per size over
// fixAIDS: BenchmarkBudgetedQuery takes 10 per set, BenchmarkCachedZipf 50.
func aidsQueries(b *testing.B, perSet int) []*graph.Graph {
	b.Helper()
	fixtures(b)
	var queries []*graph.Graph
	for i, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
		for _, edges := range []int{4, 8, 16, 32} {
			qs, err := gen.QuerySet(fixAIDS, gen.QuerySetConfig{Count: perSet, Edges: edges, Method: m, Seed: int64(10*i + edges)})
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, qs...)
		}
	}
	return queries
}

// BenchmarkBudgetedQuery is the configuration the server runs: bare CFQL
// over the AIDS fixtures without a context and with one whose deadline is
// an hour away, which is what sqserver -budget sets on every query. The
// two rows return the same answers; the gap between their ns/query is what
// carrying a deadline costs the per-graph loop in clock reads and polls.
func BenchmarkBudgetedQuery(b *testing.B) {
	queries := aidsQueries(b, 10)
	e := core.NewCFQL()
	if err := e.Build(fixAIDS, core.BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	want := 0 // answers summed over the queries: the same in either row
	for _, name := range []string{"NoDeadline", "Deadline"} {
		b.Run(name, func(b *testing.B) {
			var opts core.QueryOptions
			if name == "Deadline" {
				ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
				defer cancel()
				opts.Context = ctx
			}
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range queries {
					total += len(e.Query(q, opts).Answers)
				}
				if total == 0 || (want != 0 && total != want) {
					b.Fatalf("%d answers over the queries, want %d (and not 0)", total, want)
				}
				want = total
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
		})
	}
}

// zipfBlock returns size query indices in which index k (its rank) appears
// in proportion to (v+k)^-s, the law of rand.NewZipf: the expected counts
// rounded by largest remainder so that they sum to size. The served
// aids-default-hot workload cycles a block made this way.
func zipfBlock(queries, size int, s, v float64) []int {
	expected := make([]float64, queries)
	var sum float64
	for k := range expected {
		expected[k] = math.Pow(v+float64(k), -s)
		sum += expected[k]
	}
	counts := make([]int, queries)
	byRemainder := make([]int, queries)
	placed := 0
	for k, wk := range expected {
		expected[k] = float64(size) * wk / sum
		counts[k] = int(expected[k])
		placed += counts[k]
		byRemainder[k] = k
	}
	slices.SortStableFunc(byRemainder, func(i, j int) int {
		return cmp.Compare(expected[j]-float64(counts[j]), expected[i]-float64(counts[i]))
	})
	for _, k := range byRemainder[:size-placed] {
		counts[k]++
	}
	block := make([]int, 0, size)
	for k, c := range counts {
		for ; c > 0; c-- {
			block = append(block, k)
		}
	}
	return block
}

// BenchmarkCachedZipf is the repeat-heavy traffic the result cache exists
// for, under the pressure the served aids-default-hot workload puts on it:
// a largest-remainder Zipf(s=1.3, v=4) block of 400 over a shuffled ranking
// of 400 Q4-Q32 sparse and dense queries (145 distinct), in shuffled
// order, through bare CFQL, through a 64-entry cache (under half the
// distinct queries: the old default) and through a cache of
// core.DefaultCacheEntries, after one warm-up pass of the block, since the
// server cycles it. Each position of the block holds its own renumbered
// copy of its query, so a repeat at another position is a renumbered twin
// and one at the same position an identically numbered resend. ns/query
// is the figure to compare; the cached rows' shares say how their queries
// were answered — exact hits, verified pools, full scans — and their time
// shares where their time went.
func BenchmarkCachedZipf(b *testing.B) {
	queries := aidsQueries(b, 50)
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	picks := zipfBlock(len(queries), len(queries), 1.3, 4)
	r.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	block := make([]*graph.Graph, len(picks))
	for i, k := range picks {
		block[i] = gen.Renumber(queries[k], r)
	}
	want := 0 // answers summed over one block: the same through either engine
	for _, capacity := range []int{0, 64, core.DefaultCacheEntries} {
		name := "Plain"
		if capacity > 0 {
			name = fmt.Sprintf("Cached%d", capacity)
		}
		b.Run(name, func(b *testing.B) {
			var e core.Engine = core.NewCFQL()
			if capacity > 0 {
				e = core.NewCached(e, capacity)
			}
			if err := e.Build(fixAIDS, core.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
			// The served workload cycles its block: measure a warm pass.
			for _, q := range block {
				e.Query(q, core.QueryOptions{})
			}
			outcomes, spent := map[string]int{}, map[string]time.Duration{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, q := range block {
					t0 := time.Now()
					res := e.Query(q, core.QueryOptions{})
					spent[res.Cache] += time.Since(t0)
					total += len(res.Answers)
					outcomes[res.Cache]++
				}
				if total == 0 || (want != 0 && total != want) {
					b.Fatalf("%d answers over the block, want %d (and not 0)", total, want)
				}
				want = total
			}
			queriesRun := float64(b.N * len(block))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queriesRun, "ns/query")
			if capacity > 0 {
				if outcomes[core.CacheExact] == 0 {
					b.Fatal("no exact hits on a Zipf block")
				}
				var all time.Duration
				for _, d := range spent {
					all += d
				}
				for _, kind := range []string{core.CacheExact, core.CacheSubgraph, core.CacheMiss} {
					b.ReportMetric(float64(outcomes[kind])/queriesRun, kind+"_share")
					b.ReportMetric(float64(spent[kind])/float64(all), kind+"_time_share")
				}
			}
		})
	}
}

func benchMemory(b *testing.B, db *graph.Database, queries []*graph.Graph) {
	for _, name := range []string{"Grapes", "GGSX", "CFQL"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := builtEngine(b, name, db)
				var aux int64
				for _, q := range queries {
					res := e.Query(q, core.QueryOptions{Workers: 1})
					if res.AuxMemory > aux {
						aux = res.AuxMemory
					}
				}
				total := e.IndexMemory() + aux
				if total <= 0 {
					b.Fatalf("%s reported no memory", name)
				}
				b.ReportMetric(float64(total)/(1<<20), "MB")
			}
		})
	}
}
