// Package core implements the paper's three categories of subgraph query
// processing algorithms behind one Engine interface:
//
//   - IFV (Algorithm 1): index-based filtering, VF2 verification — Grapes,
//     GGSX and CT-Index configurations.
//   - vcFV (Algorithm 2): vertex-connectivity filtering via the
//     preprocessing phase of a subgraph matching algorithm, verification by
//     its enumeration phase stopped at the first embedding — CFL, GraphQL
//     and CFQL configurations.
//   - IvcFV (§III-C): index filtering followed by vertex-connectivity
//     filtering and enumeration — vcGrapes and vcGGSX.
//
// Every Query call returns the answer set together with the per-phase
// metrics the paper's evaluation reports: filtering time, verification
// time, candidate count and auxiliary memory.
package core

import (
	"context"
	"runtime"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// Engine answers subgraph queries over one graph database.
type Engine interface {
	// Name identifies the engine configuration (e.g. "CFQL", "vcGrapes").
	Name() string

	// Build prepares the engine for the database: IFV and IvcFV engines
	// construct their index here; vcFV engines only retain the reference
	// (their "index-free" property, §I). Build must be called before Query
	// and again after the database changes — except for vcFV engines,
	// whose Build is free.
	Build(db *graph.Database, opts BuildOptions) error

	// Query finds all data graphs containing q and reports metrics.
	Query(q *graph.Graph, opts QueryOptions) *Result

	// IndexMemory returns the byte footprint of the engine's persistent
	// auxiliary structures (the index); 0 for vcFV engines.
	IndexMemory() int64
}

// Updatable is implemented by engines that can incorporate a newly
// appended data graph without a full index rebuild. All vcFV engines
// qualify trivially (they are index-free); IFV/IvcFV engines qualify when
// their index supports incremental insertion (see index.Appender).
type Updatable interface {
	// AppendGraph adds g to the engine's database and updates any index,
	// returning the new graph's id.
	AppendGraph(g *graph.Graph) (int, error)
}

// BuildOptions bounds index construction; vcFV engines ignore it.
type BuildOptions struct {
	// Deadline aborts index construction (paper: 24 hours).
	Deadline time.Time
	// MaxFeatures is a deterministic enumeration budget (see index pkg).
	MaxFeatures int64
	// Workers parallelizes index construction where supported (path tries).
	Workers int
}

// QueryOptions bounds query processing.
type QueryOptions struct {
	// Context is the query's one stop signal. Its deadline is the query
	// budget (paper: 10 minutes per query): a query past it returns
	// TimedOut and a partial answer set. Cancelling it (remote
	// cancellation, a client gone, a hedge lost) stops the query promptly
	// with Cancelled and TimedOut set and a partial answer set. nil means
	// no deadline and no cancellation, at no cost. The engine reads the
	// context once, at entry, and never retains it past the call.
	Context context.Context
	// MemoryBudget bounds the live byte footprint of the per-graph
	// candidate structure a vcFV/IvcFV engine builds
	// (Candidates.MemoryFootprint). A data graph whose structure outgrows
	// the budget is skipped with a KindBudget QueryError instead of
	// running the process out of memory; the query continues with the
	// remaining graphs. 0 disables the check. IFV engines, which build no
	// candidate structure, ignore it.
	MemoryBudget int64
	// StepBudgetPerGraph bounds each subgraph isomorphism test's search
	// steps, a deterministic timeout proxy for tests. 0 = unlimited.
	StepBudgetPerGraph uint64
	// Workers sets the pool size of the per-graph loop for the
	// configurations that pool — every indexed one and CFQL-parallel;
	// the others ignore it. 0 selects the configuration's default (6 for
	// Grapes, vcGrapes and CFQL-parallel, otherwise 1).
	Workers int
	// Observer, when non-nil, receives one event per subgraph isomorphism
	// test (obs.Observer.ObserveVerify), the per-SI-test stream; every
	// other signal of the query is a field of the returned Result.
	// Implementations must be safe for concurrent use: parallel engines
	// emit from worker goroutines. nil disables the stream at near-zero
	// cost (one branch per test).
	Observer obs.Observer
	// Explain, when non-nil, collects a structured EXPLAIN report for the
	// query: per-query-vertex candidate counts after each filter stage
	// (CFL's LDF/top-down/bottom-up, GraphQL's profile/refine), index probe
	// statistics (trie nodes visited, intersection sizes, fingerprint
	// survivors), and the chosen matching order with per-vertex
	// selectivity. Explain is mutex-guarded and safe for concurrent
	// recording from parallel workers. nil disables collection at zero
	// allocation cost on the hot path.
	Explain *obs.Explain
	// Fingerprint is the query's canonical shape hash (telemetry.Compute).
	// Zero — the common case — means "compute it for me": every engine
	// fingerprints the query at entry and reports it on the Result.
	// Callers that already computed it (the server's admission path does,
	// so shed queries are attributed before they execute) pass it here to
	// avoid recomputing; wrappers (Cached) pass it down so the inner
	// engine agrees.
	Fingerprint telemetry.Fingerprint
	// Handle, when non-nil, makes the query visible to live inspection:
	// the engine ticks its progress counters as data graphs are processed.
	// The caller registers it (inflight.Registry.Register) with the
	// CancelFunc of Context, so remote cancellation ends the query, and
	// deregisters it after Query returns; engines never register or
	// deregister. Wrappers
	// (Cached) pass it to the inner engine, and a cluster Coordinator
	// registers its per-shard sub-handles in the handle's own registry.
	// nil disables tracking at no cost.
	Handle *inflight.Handle
}

// Result reports a query's answers and the metrics of §IV-A.
type Result struct {
	// Answers is the answer set A(q): ascending ids of data graphs
	// containing q.
	Answers []int

	// Candidates is |C(q)|, the number of graphs surviving filtering and
	// entering verification.
	Candidates int

	// FilterTime is the time spent in the filtering step. For vcFV and
	// IvcFV engines it includes extracting the candidate vertex sets, as
	// the paper prescribes. The per-graph loop chains its clock readings —
	// a graph's filter starts at the reading that ended the graph before —
	// so on a sequential vcFV or IvcFV engine FilterTime + VerifyTime is
	// the wall time of the probe and the loop, with the bookkeeping between
	// graphs attributed to the filter; on a pool they are sums over the
	// workers.
	FilterTime time.Duration

	// VerifyTime is the time spent in the verification step: per-graph
	// enumeration for vcFV and IvcFV engines, the wall time of the loop
	// for the others.
	VerifyTime time.Duration

	// VerifySteps sums search-tree steps across all verification calls.
	VerifySteps uint64

	// AuxMemory is the peak byte footprint of per-query auxiliary data
	// (candidate vertex sets) for vcFV/IvcFV engines; 0 for pure IFV.
	AuxMemory int64

	// TimedOut reports that the query stopped before it finished: its
	// Context's deadline passed, the Context was cancelled, or a per-graph
	// step budget ran out. Answers is then a lower bound.
	TimedOut bool

	// Cancelled refines TimedOut: the query stopped because its Context
	// was cancelled, not because time ran out. Always set together with
	// TimedOut (the answer set is a lower bound either way); a deadline
	// never sets it.
	Cancelled bool

	// Skipped counts data graphs abandoned mid-processing — a recovered
	// panic or an exceeded memory budget — without aborting the query.
	// Answers is a lower bound when Skipped > 0.
	Skipped int

	// GraphErrors details the skipped graphs' failures, capped at
	// maxGraphErrors entries (Skipped is the true count).
	GraphErrors []*QueryError

	// GraphErrorsTruncated counts GraphErrors entries dropped to hold the
	// cap when partial results are merged at the scatter-gather tier
	// (CapGraphErrors): the coordinator caps once across all shards and
	// records what it dropped instead of dropping silently. 0 on results
	// straight out of a single engine, whose recordGraphError never
	// retains more than the cap in the first place.
	GraphErrorsTruncated int

	// Degraded marks a partial answer due to a lost database partition:
	// one or more shards stayed unreachable through the coordinator's
	// retries, their graphs are counted in Skipped, and a KindShard entry
	// in GraphErrors names each lost partition. Always false on
	// single-engine results.
	Degraded bool

	// Err is set when the query itself failed — a panic recovered at the
	// engine boundary outside any per-graph section. The rest of the
	// Result holds whatever was computed before the failure.
	Err *QueryError

	// Fingerprint is the query's canonical shape hash, echoed from
	// QueryOptions.Fingerprint or computed at engine entry. Never zero on a
	// Result returned by an engine.
	Fingerprint telemetry.Fingerprint

	// Cache says how a Cached engine used its result cache for this query:
	// CacheExact, CacheSubgraph or CacheMiss; "" means no cache was asked.
	Cache string

	// Workers is the effective worker-pool size of the per-graph loop,
	// after clamping to runtime.GOMAXPROCS(0), so oversubscribed
	// configurations are visible; 0 when the loop ran sequentially.
	Workers int
}

// QueryTime returns the paper's "query time" metric: filtering plus
// verification time.
func (r *Result) QueryTime() time.Duration { return r.FilterTime + r.VerifyTime }

// Panics counts the recovered panics the Result records: the panic-kind
// GraphErrors (capped like the list) plus a query-level panic in Err.
func (r *Result) Panics() int {
	n := 0
	for _, ge := range r.GraphErrors {
		if ge.Kind == KindPanic {
			n++
		}
	}
	if r.Err != nil && r.Err.Kind == KindPanic {
		n++
	}
	return n
}

// TraceSnapshot is the ?trace=1 view of the query: the Result's phase
// times, cache outcome, worker count, panics and fingerprint, with the
// verification events t recorded (t may be nil).
func (r *Result) TraceSnapshot(t *obs.Trace) obs.TraceSnapshot {
	events, dropped := t.Verifications()
	s := obs.TraceSnapshot{
		Phases: []obs.PhaseSpan{
			{Name: obs.PhaseFilter, DurationUS: r.FilterTime.Microseconds()},
			{Name: obs.PhaseVerify, DurationUS: r.VerifyTime.Microseconds()},
		},
		Verifications:        events,
		VerificationsTotal:   len(events) + dropped,
		VerificationsDropped: dropped,
		Truncated:            dropped > 0,
		Workers:              r.Workers,
		Panics:               r.Panics(),
	}
	switch r.Cache {
	case "":
	case CacheMiss:
		s.CacheMisses = 1
	default:
		s.CacheHits = 1
	}
	if r.Fingerprint != 0 {
		s.Fingerprint = r.Fingerprint.String()
	}
	return s
}

// Contains reports whether graph id is in the answer set.
func (r *Result) Contains(id int) bool {
	lo, hi := 0, len(r.Answers)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.Answers[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.Answers) && r.Answers[lo] == id
}

// clampWorkers bounds a requested worker count to [1, GOMAXPROCS]. Worker
// goroutines here are CPU-bound (no blocking I/O), so pool sizes beyond the
// scheduler's parallelism only add context switches — and, with per-worker
// scratch arenas, memory. The effective count is what engines report in
// Result.Workers.
func clampWorkers(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	if n < 1 {
		return 1
	}
	return n
}

// fingerprintQuery resolves the query's fingerprint at engine entry: the
// caller-provided hash when set (so wrappers and the server's admission
// path agree with the engine), telemetry.Compute otherwise. The resolved
// value is written back into opts (callees and wrapped engines inherit
// it) and returned for the Result. Engines
// call this first, before degenerate() — even an empty query gets a
// fingerprint so shed/degenerate events aggregate.
func fingerprintQuery(q *graph.Graph, opts *QueryOptions) telemetry.Fingerprint {
	if opts.Fingerprint == 0 {
		opts.Fingerprint = telemetry.Compute(q)
	}
	return opts.Fingerprint
}

// degenerate handles the empty query uniformly across engines: a query
// with no vertices has no answers and no candidates, by definition of a
// connected query graph (§II-A assumes q is connected, hence non-empty).
func degenerate(q *graph.Graph) (*Result, bool) {
	if q.NumVertices() == 0 {
		return &Result{}, true
	}
	return nil, false
}
