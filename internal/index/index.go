// Package index implements the graph database indexes of the IFV algorithms
// (§III-A, Table II) over three stores:
//
//   - the path trie (PathTrie): exhaustively enumerated labeled paths up to
//     a maximum length. Grapes [10] is the trie with per-graph occurrence
//     counts (the paper builds it with 6 threads); GGSX (GraphGrepSX) [2] is
//     the same trie keeping per-graph presence only (built sequentially in
//     the original). Both build on BuildOptions.Workers workers.
//   - the mined posting table (Mined): gIndex, TreePi and FG-Index keep the
//     frequent path, tree and connected-subgraph features.
//   - per-graph fingerprints: CT-Index [20] hashes tree and cycle features
//     up to a maximum size into fixed-width bit fingerprints, GraphGrep
//     path features into count buckets.
//
// Catalogue lists them. Every index implements the Index interface used by
// the engines in internal/core. Index construction accepts a budget so the
// experiment harness can report out-of-time (OOT) conditions the way the
// paper does instead of hanging: the paper's Table VI and VIII mark
// CT-Index OOT on most datasets.
package index

import (
	"errors"
	"time"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// Index is a graph database index: built once over D, it maps a query graph
// to the set of data graph ids that contain all the query's features — the
// candidate set C(q) of Algorithm 1.
type Index interface {
	// Name identifies the index in experiment output.
	Name() string

	// Build constructs the index over the database. It replaces any
	// previous contents and may return ErrBudget when opts limits are hit.
	Build(db *graph.Database, opts BuildOptions) error

	// Filter returns the ids of data graphs that contain every feature of
	// q, in ascending order.
	Filter(q *graph.Graph) []int

	// MemoryFootprint returns the approximate byte size of the index,
	// the paper's "Memory Cost" metric (Tables VII and IX).
	MemoryFootprint() int64
}

// Catalogue constructs one of every index, in Table II's order:
// enumeration-based, then mining-based.
var Catalogue = []func() Index{
	func() Index { return new(GraphGrep) },
	func() Index { return NewGrapes() },
	func() Index { return new(GGSX) },
	func() Index { return new(CTIndex) },
	func() Index { return NewGIndex() },
	func() Index { return NewTreePi() },
	func() Index { return NewFGIndex() },
}

// BuildOptions bounds index construction.
type BuildOptions struct {
	// Deadline aborts construction when exceeded (the paper allows 24h);
	// zero means no deadline.
	Deadline time.Time

	// MaxFeatures aborts construction after this many enumerated feature
	// instances, a deterministic out-of-time proxy for tests: path
	// occurrences, distinct subtrees (each is visited once), cycles,
	// connected-subgraph growth orders. 0 = no limit.
	MaxFeatures int64

	// Workers sets the parallelism of index construction for indexes that
	// support it (the path trie), at most GOMAXPROCS; 0 selects 1.
	Workers int
}

// ErrBudget is returned by Build when a Deadline or MaxFeatures budget was
// exhausted; the harness reports the corresponding experiment cell as OOT.
var ErrBudget = errors.New("index: construction budget exhausted")

// checkpoint returns the deadline poller a Build loop ticks once per
// enumerated feature instance, at the shared feature-mining stride.
func (o *BuildOptions) checkpoint() budget.Checkpoint {
	return budget.Checkpoint{Deadline: o.Deadline, Stride: budget.FeatureStride}
}

// ExactFilter is implemented by indexes that can sometimes answer a query
// outright — FG-Index's "verification-free query processing": when the
// whole query matches an indexed feature, the posting list *is* the answer
// set. exact=false degrades to ordinary candidate filtering.
type ExactFilter interface {
	FilterExact(q *graph.Graph) (ids []int, exact bool)
}

// Explainable is implemented by indexes that can report per-probe
// statistics — trie nodes visited, occurrence-list intersection sizes,
// fingerprint survivors — into an obs.Explain while filtering. Filter(q)
// must be equivalent to FilterExplain(q, nil).
type Explainable interface {
	FilterExplain(q *graph.Graph, ex *obs.Explain) []int
}

// DefaultMaxPathLength is the paper's configured maximum path feature
// length (in edges) for Grapes and GGSX: "enumerate paths of up to a
// length of 4". GraphGrep and gIndex use it too.
const DefaultMaxPathLength = 4
