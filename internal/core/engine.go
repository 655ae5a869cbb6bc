package core

import (
	"fmt"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
)

// engine is every configuration of Algorithm 1 (IFV), Algorithm 2 (vcFV)
// and §III-C (IvcFV) as data over the one per-graph loop of run.each: an
// optional index probe picks the surviving data graphs, then test decides
// each survivor. The constructors below are the whole catalogue
// (DESIGN.md, "One engine, one loop", has it as a table).
type engine struct {
	name string
	// idx is the index stage; nil means every data graph survives.
	idx index.Index
	// test decides one surviving data graph: fusedTest or matcherTest.
	test graphTest
	// fused marks a fusedTest (Algorithm 2's body): FilterTime and
	// VerifyTime are per-graph sums and Candidates counts filter passes.
	// Otherwise test is Algorithm 1's Verify: every survivor is a
	// candidate, FilterTime is the probe and VerifyTime the wall time of
	// the loop.
	fused bool
	// workers is the default pool size (Grapes runs 6 threads in the
	// paper). QueryOptions.Workers overrides it for configurations that
	// pool at all — the indexed ones and those with a default; the rest
	// run on the caller's goroutine whatever the caller asks.
	workers int

	db    *graph.Database
	built bool
}

// The per-graph tests the catalogue shares.
var (
	// cfqlFused is CFQL's test (§III-B): CFL's Filter (faster) with
	// GraphQL's join-based Verify (more robust). The IvcFV engines and
	// CFQL-parallel run it too.
	cfqlFused = fusedTest(matching.CFQL)
	// vf2First is the verification of the IFV algorithms (Table II):
	// plain VF2, first match.
	vf2First = matcherTest(func(q, g *graph.Graph, opts matching.Options) matching.Result {
		return (&matching.VF2{}).FindFirst(q, g, opts)
	})
)

// NewCFL returns the vcFV engine that integrates CFL [1]: CFL's
// preprocessing as Filter and CFL's path-based enumeration as Verify.
func NewCFL() Engine {
	return &engine{name: "CFL", test: fusedTest(matching.CFL), fused: true}
}

// NewGraphQL returns the vcFV engine that integrates GraphQL [14]:
// GraphQL's preprocessing as Filter and its join-based enumeration as
// Verify.
func NewGraphQL() Engine {
	return &engine{name: "GraphQL", test: fusedTest(matching.GraphQL), fused: true}
}

// NewCFQL returns the paper's hybrid vcFV engine: CFL's Filter with
// GraphQL's Verify, §III-B.
func NewCFQL() Engine {
	return &engine{name: "CFQL", test: cfqlFused, fused: true}
}

// NewParallelCFQL returns a CFQL engine whose per-graph work runs on a
// pool of the given number of workers (0 selects 6, matching the Grapes
// configuration) — an extension beyond the paper, whose vcFV
// implementations are single-threaded. The count is clamped to
// runtime.GOMAXPROCS(0) at query time.
func NewParallelCFQL(workers int) Engine {
	if workers <= 0 {
		workers = 6
	}
	return &engine{name: "CFQL-parallel", test: cfqlFused, fused: true, workers: workers}
}

// NewGrapes returns the Grapes IFV engine: path-trie index with occurrence
// counts and parallel VF2 verification (6 workers by default, the paper's
// configuration).
func NewGrapes() Engine {
	return &engine{name: "Grapes", idx: index.NewGrapes(), test: vf2First, workers: 6}
}

// NewGGSX returns the GGSX IFV engine: path-trie index with per-graph
// presence only, sequential VF2 verification.
func NewGGSX() Engine {
	return &engine{name: "GGSX", idx: &index.GGSX{}, test: vf2First}
}

// NewCTIndex returns the CT-Index IFV engine: tree/cycle fingerprint index
// and a modified VF2 whose matching order is optimized per query.
func NewCTIndex() Engine {
	ctVF2 := func(q, g *graph.Graph, opts matching.Options) matching.Result {
		return (&matching.VF2{Order: matching.CTIndexOrder(q, g)}).FindFirst(q, g, opts)
	}
	return &engine{name: "CT-Index", idx: &index.CTIndex{}, test: matcherTest(ctVF2)}
}

// NewGraphGrep returns the GraphGrep IFV engine: hashed path fingerprints
// with occurrence counts (Table II's earliest enumeration-based method).
func NewGraphGrep() Engine {
	return &engine{name: "GraphGrep", idx: &index.GraphGrep{}, test: vf2First}
}

// NewGIndex returns a mining-based IFV engine in the spirit of gIndex:
// frequent, discriminative path features (Table II's mining-based row).
func NewGIndex() Engine {
	return &engine{name: "gIndex", idx: index.NewGIndex(), test: vf2First}
}

// NewTreePi returns a mining-based IFV engine in the spirit of TreePi /
// SwiftIndex: frequent subtree features with AHU canonical codes.
func NewTreePi() Engine {
	return &engine{name: "TreePi", idx: index.NewTreePi(), test: vf2First}
}

// NewFGIndex returns a mining-based IFV engine in the spirit of FG-Index:
// frequent connected-subgraph features with exact canonical codes, and
// verification-free answers for queries that match a feature verbatim.
func NewFGIndex() Engine {
	return &engine{name: "FG-Index", idx: index.NewFGIndex(), test: vf2First}
}

// NewVcGrapes returns the vcGrapes IvcFV engine (§III-C): Grapes' trie
// index, then CFQL's filtering and verification on the survivors, with
// Grapes' parallel configuration.
func NewVcGrapes() Engine {
	return &engine{name: "vcGrapes", idx: index.NewGrapes(), test: cfqlFused, fused: true, workers: 6}
}

// NewVcGGSX returns the vcGGSX IvcFV engine: GGSX's presence trie plus
// CFQL filtering and verification.
func NewVcGGSX() Engine {
	return &engine{name: "vcGGSX", idx: &index.GGSX{}, test: cfqlFused, fused: true}
}

// NewScan returns the naive baseline of §III-B's opening: VF2, first
// match, against every data graph with no filtering at all. It doubles as
// the ground-truth oracle in tests and as the ablation baseline
// quantifying what filtering buys.
func NewScan() Engine {
	return &engine{name: "Scan-VF2", test: vf2First}
}

// NewTurboIso returns the TurboIso [11] extension engine, applied to
// subgraph queries the same naive way. TurboIso interleaves its
// candidate-region filtering with enumeration per start vertex, so the
// paper's filter/verify split does not apply: all time is reported as
// verification and every data graph counts as a candidate, like the scan.
func NewTurboIso() Engine {
	return &engine{name: "TurboIso", test: matcherTest(matching.TurboIso{}.FindFirst)}
}

// Name implements Engine.
func (e *engine) Name() string { return e.name }

// Indexed reports whether the configuration has an index stage.
func (e *engine) Indexed() bool { return e.idx != nil }

// Pooled reports whether the configuration runs on a worker pool of its
// own: Grapes and vcGrapes, as in the paper, and CFQL-parallel.
func (e *engine) Pooled() bool { return e.workers > 0 }

// Build implements Engine: constructs the index, if the configuration has
// one; index-free engines only retain the database.
func (e *engine) Build(db *graph.Database, opts BuildOptions) error {
	e.db = db
	e.built = false
	if e.idx == nil {
		return nil
	}
	workers := opts.Workers
	if workers == 0 {
		workers = e.workers
	}
	err := e.idx.Build(db, index.BuildOptions{
		Deadline:    opts.Deadline,
		MaxFeatures: opts.MaxFeatures,
		Workers:     workers,
	})
	if err != nil {
		return err
	}
	e.built = true
	return nil
}

// IndexMemory implements Engine.
func (e *engine) IndexMemory() int64 {
	if !e.built {
		return 0
	}
	return e.idx.MemoryFootprint()
}

// AppendGraph implements Updatable: the database gains the graph, and so
// does the index when it supports incremental insertion (index.Appender).
func (e *engine) AppendGraph(g *graph.Graph) (int, error) {
	if e.idx == nil {
		return e.db.Append(g), nil
	}
	app, ok := e.idx.(index.Appender)
	if !ok {
		return 0, fmt.Errorf("core: %s index does not support incremental updates; rebuild with Build", e.name)
	}
	if !e.built {
		return 0, fmt.Errorf("core: %s index not built", e.name)
	}
	// The index first, under the id the database will give: a graph the
	// index refuses must not get an id no probe will ever return.
	if err := app.InsertGraph(g, e.db.Len()); err != nil {
		return 0, err
	}
	return e.db.Append(g), nil
}

// poolSize resolves the worker count of one query, clamped to the
// scheduler's parallelism.
func (e *engine) poolSize(requested int) int {
	if e.idx == nil && e.workers == 0 {
		return 1
	}
	if requested <= 0 {
		requested = e.workers
	}
	return clampWorkers(requested)
}

// Query implements Engine: Algorithm 1 when test is a matcher, Algorithm 2
// when it is fused, §III-C when it is fused behind an index. Both
// filtering levels count toward FilterTime, per the paper's metric
// definition.
func (e *engine) Query(q *graph.Graph, opts QueryOptions) (res *Result) {
	fp := fingerprintQuery(q, &opts)
	if r, done := degenerate(q); done {
		r.Fingerprint = fp
		return r
	}
	res = &Result{Fingerprint: fp}
	defer queryGuard(e.name, res)
	h := opts.Handle
	opts.Explain.SetEngine(e.name)

	rn := newRun(e.name, e.db, q, opts, res, h, e.test)
	now := rn.read()
	var ids []int // nil: every data graph
	n := e.db.Len()
	if e.idx != nil {
		h.SetPhase(inflight.PhaseFilter)
		if rn.stop(now) {
			// Already cancelled or past deadline: don't even probe the
			// index. The per-graph loop would notice too, but only after
			// the probe was paid for — and the verification-free path
			// (FG-Index exact hits) would return a complete answer for a
			// query the caller abandoned.
			return res
		}
		survivors, exact := probeIndex(e.idx, q, opts.Explain)
		probed := rn.read()
		res.FilterTime = probed - now
		now = probed
		if exact {
			// Verification-free answer (FG-Index): the posting list is
			// A(q) already.
			res.Candidates = len(survivors)
			res.Answers = survivors
			return res
		}
		ids, n = survivors, len(survivors)
	}

	h.SetGraphsTotal(n)
	if e.fused {
		h.SetPhase(inflight.PhaseFused)
	} else {
		h.SetPhase(inflight.PhaseVerify)
		res.Candidates = n
		h.AddCandidates(n)
	}
	workers := e.poolSize(opts.Workers)
	if workers > 1 {
		res.Workers = workers
	}
	end := rn.each(ids, n, workers, now)
	if !e.fused {
		res.VerifyTime = end - now
	}
	return res
}
