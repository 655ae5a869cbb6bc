// Package subgraphquery is an index-free subgraph query processing library,
// a from-scratch Go implementation of the system studied in:
//
//	Shixuan Sun and Qiong Luo. "Scaling Up Subgraph Query Processing with
//	Efficient Subgraph Matching." ICDE 2019.
//
// A subgraph query finds all data graphs in a graph database that contain a
// given query graph. The library provides the paper's three algorithm
// categories behind one Engine interface:
//
//   - IFV engines (Grapes, GGSX, CT-Index): classic
//     indexing-filtering-verification — an index over path / tree / cycle
//     features filters the database, VF2 verifies the survivors.
//   - vcFV engines (CFL, GraphQL, CFQL): the paper's contribution — no
//     index at all; the preprocessing phase of a modern subgraph matching
//     algorithm filters each data graph by vertex connectivity, and its
//     enumeration phase verifies, stopping at the first embedding. CFQL
//     (CFL's filter + GraphQL's ordering) is the recommended default.
//   - IvcFV engines (vcGrapes, vcGGSX): both filtering levels combined.
//
// It also exposes full subgraph matching (enumerate all embeddings), the
// dataset and query-workload generators used in the paper's evaluation, and
// a benchmark harness regenerating every table and figure (see DESIGN.md
// and EXPERIMENTS.md).
//
// Quick start:
//
//	db := subgraphquery.NewDatabase(graphs)
//	engine := subgraphquery.NewCFQLEngine()
//	engine.Build(db, subgraphquery.BuildOptions{})
//	result := engine.Query(q, subgraphquery.QueryOptions{})
//	fmt.Println(result.Answers) // ids of graphs containing q
package subgraphquery

import (
	"io"

	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// Re-exported graph substrate types.
type (
	// Graph is an immutable vertex-labeled undirected graph in CSR form.
	Graph = graph.Graph
	// Label is a vertex label.
	Label = graph.Label
	// VertexID identifies a vertex within one graph.
	VertexID = graph.VertexID
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Builder incrementally constructs a Graph.
	Builder = graph.Builder
	// Database is an in-memory collection of data graphs.
	Database = graph.Database
	// DatabaseStats summarizes a database (Table IV-style statistics).
	DatabaseStats = graph.Stats
)

// Re-exported engine types.
type (
	// Engine answers subgraph queries over one database.
	Engine = core.Engine
	// BuildOptions bounds index construction (ignored by vcFV engines).
	BuildOptions = core.BuildOptions
	// QueryOptions bounds query processing.
	QueryOptions = core.QueryOptions
	// Result reports a query's answers and per-phase metrics.
	Result = core.Result
	// QueryError is the structured form of a failure inside query
	// processing: a panic recovered at an engine's resilience boundary or a
	// graph skipped for exceeding QueryOptions.MemoryBudget. Found on
	// Result.Err and Result.GraphErrors.
	QueryError = core.QueryError
)

// QueryError kinds, for matching on QueryError.Kind.
const (
	// ErrKindPanic marks a recovered panic.
	ErrKindPanic = core.KindPanic
	// ErrKindBudget marks a graph skipped for exceeding the memory budget.
	ErrKindBudget = core.KindBudget
	// ErrKindShard marks a shard partition lost by a scatter-gather
	// coordinator; Result.Degraded is set and QueryError.Shard names the
	// lost shard.
	ErrKindShard = core.KindShard
)

// Re-exported observability types (see internal/obs): the Result carries a
// query's phase times, cache outcome, worker count, panics and fingerprint;
// set QueryOptions.Observer to stream the one signal it cannot carry, one
// event per subgraph isomorphism test.
type (
	// Observer receives the per-SI-test stream.
	Observer = obs.Observer
	// Trace records one query's verification events; it implements
	// Observer and a nil *Trace is a free no-op.
	Trace = obs.Trace
	// TraceSnapshot is the ?trace=1 view of a query, built by
	// Result.TraceSnapshot from the Result and its Trace.
	TraceSnapshot = obs.TraceSnapshot
	// Explain collects a structured EXPLAIN report from the filtering and
	// index internals; set QueryOptions.Explain to enable. A nil *Explain
	// is a free no-op.
	Explain = obs.Explain
	// ExplainSnapshot is the JSON-marshalable view of an Explain.
	ExplainSnapshot = obs.ExplainSnapshot
	// Fingerprint is a canonical, label-aware 64-bit hash of a query
	// graph's structure, invariant under vertex renumbering — the
	// aggregation key of all workload telemetry. Engines compute it at
	// Query entry and report it on Result.Fingerprint.
	Fingerprint = telemetry.Fingerprint
	// InflightRegistry tracks live queries for inspection and remote
	// cancellation: register a handle with the CancelFunc of the query's
	// context (inflight.RegisterOptions.Cancel), set QueryOptions.Handle and
	// QueryOptions.Context, and deregister it when Query returns.
	InflightRegistry = inflight.Registry
	// InflightHandle is one live query's registry entry with atomic
	// progress counters. A nil *InflightHandle is a free no-op.
	InflightHandle = inflight.Handle
	// InflightSnapshot is the JSON-marshalable view of a live query.
	InflightSnapshot = inflight.HandleSnapshot
)

// ComputeFingerprint returns the canonical fingerprint of q. Engines call
// this implicitly; it is exported for callers that want to pre-compute the
// hash (e.g. to attribute load-shed queries) and pass it via
// QueryOptions.Fingerprint.
func ComputeFingerprint(q *Graph) Fingerprint { return telemetry.Compute(q) }

// NewTrace returns an empty per-query trace.
func NewTrace() *Trace { return obs.NewTrace() }

// NewExplain returns an empty per-query EXPLAIN report.
func NewExplain() *Explain { return obs.NewExplain() }

// NewInflightRegistry returns a live-query registry with the given slot
// capacity (0 selects the default).
func NewInflightRegistry(slots int) *InflightRegistry { return inflight.NewRegistry(slots) }

// NewBuilder returns a graph builder with capacity hints.
func NewBuilder(vertices, edges int) *Builder { return graph.NewBuilder(vertices, edges) }

// FromEdges builds a graph from a label array and an edge list.
func FromEdges(labels []Label, edges []Edge) (*Graph, error) {
	return graph.FromEdges(labels, edges)
}

// NewDatabase returns a database over the given data graphs.
func NewDatabase(graphs []*Graph) *Database { return graph.NewDatabase(graphs) }

// ReadDatabase parses a database in the text format ("t/v/e" records).
func ReadDatabase(r io.Reader) (*Database, error) { return graph.ReadDatabase(r) }

// WriteDatabase serializes a database in the text format.
func WriteDatabase(w io.Writer, d *Database) error { return graph.WriteDatabase(w, d) }

// ReadGraph parses a single graph in the text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadGraph(r) }

// WriteGraph serializes a single graph in the text format.
func WriteGraph(w io.Writer, id int, g *Graph) error { return graph.WriteGraph(w, id, g) }

// NewCFQLEngine returns the paper's recommended index-free engine: CFL's
// filtering with GraphQL's join-based verification (vcFV category).
func NewCFQLEngine() Engine { return core.NewCFQL() }

// NewCFLEngine returns the vcFV engine built from CFL alone.
func NewCFLEngine() Engine { return core.NewCFL() }

// NewGraphQLEngine returns the vcFV engine built from GraphQL alone.
func NewGraphQLEngine() Engine { return core.NewGraphQL() }

// NewGrapesEngine returns the Grapes IFV engine (path trie index + VF2).
func NewGrapesEngine() Engine { return core.NewGrapes() }

// NewGGSXEngine returns the GGSX IFV engine (suffix tree index + VF2).
func NewGGSXEngine() Engine { return core.NewGGSX() }

// NewCTIndexEngine returns the CT-Index IFV engine (tree/cycle fingerprints
// + order-optimized VF2).
func NewCTIndexEngine() Engine { return core.NewCTIndex() }

// NewVcGrapesEngine returns the vcGrapes IvcFV engine (Grapes index +
// CFQL).
func NewVcGrapesEngine() Engine { return core.NewVcGrapes() }

// NewVcGGSXEngine returns the vcGGSX IvcFV engine (GGSX index + CFQL).
func NewVcGGSXEngine() Engine { return core.NewVcGGSX() }

// NewScanEngine returns the naive baseline: VF2 against every data graph,
// no filtering.
func NewScanEngine() Engine { return core.NewScan() }

// NewTurboIsoEngine returns the TurboIso-based query engine (extension):
// candidate-region matching with first-match semantics per data graph.
func NewTurboIsoEngine() Engine { return core.NewTurboIso() }

// NewParallelCFQLEngine returns the worker-pool CFQL extension: the vcFV
// loop over data graphs runs on the given number of workers (0 selects 6).
func NewParallelCFQLEngine(workers int) Engine { return core.NewParallelCFQL(workers) }

// NewGraphGrepEngine returns the GraphGrep IFV engine (extension): hashed
// path fingerprints with occurrence counts.
func NewGraphGrepEngine() Engine { return core.NewGraphGrep() }

// NewGIndexEngine returns a mining-based IFV engine in the spirit of
// gIndex (extension): frequent, discriminative path features.
func NewGIndexEngine() Engine { return core.NewGIndex() }

// NewTreePiEngine returns a mining-based IFV engine in the spirit of
// TreePi/SwiftIndex (extension): frequent subtree features.
func NewTreePiEngine() Engine { return core.NewTreePi() }

// NewFGIndexEngine returns a mining-based IFV engine in the spirit of
// FG-Index (extension): frequent connected-subgraph features with exact
// canonical codes; queries matching a feature verbatim are answered
// verification-free.
func NewFGIndexEngine() Engine { return core.NewFGIndex() }

// NewCachedEngine wraps an engine with a subgraph-query result cache in
// the spirit of GraphCache [33,34] (extension): answer sets of past
// queries serve as candidate pools for new queries that contain them, and
// confirm answers for new queries they contain. capacity 0 selects 256
// entries, sqserver's -cache default.
func NewCachedEngine(inner Engine, capacity int) Engine {
	return core.NewCached(inner, capacity)
}

// Updatable is implemented by engines that can incorporate an appended
// data graph without a full index rebuild: every vcFV engine and the
// enumeration-based IFV/IvcFV engines. Assert it on an Engine to use
// incremental maintenance:
//
//	if u, ok := engine.(subgraphquery.Updatable); ok {
//		u.AppendGraph(g)
//	}
type Updatable = core.Updatable
