package index

import (
	"time"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// GGSX (GraphGrepSX, Bonnici et al. [2]) indexes the same exhaustively
// enumerated path features as Grapes but stores them in a suffix tree:
// inserting every suffix of every maximal enumeration path shares structure
// between features, and each node keeps only the *set* of data graphs whose
// path set reaches that node. Filtering therefore tests feature presence,
// not occurrence counts — the reason GGSX's filtering precision trails
// Grapes' in the paper's Figure 8.
type GGSX struct {
	// MaxPathLength is the maximum feature length in edges;
	// 0 selects DefaultMaxPathLength.
	MaxPathLength int

	root      *ggsxNode
	numGraphs int
	nodes     int64
	entries   int64
}

type ggsxNode struct {
	children map[graph.Label]*ggsxNode
	graphIDs []int32 // ascending ids of graphs containing this path
}

// Name implements Index.
func (*GGSX) Name() string { return "GGSX" }

func (ix *GGSX) maxLen() int {
	if ix.MaxPathLength <= 0 {
		return DefaultMaxPathLength
	}
	return ix.MaxPathLength
}

// Build implements Index. Construction is sequential (the original GGSX is
// single-threaded); the suffix expansion inserts every suffix of every
// enumerated path.
func (ix *GGSX) Build(db *graph.Database, opts BuildOptions) error {
	ix.root = &ggsxNode{}
	ix.nodes = 1
	ix.entries = 0
	ix.numGraphs = db.Len()

	var features int64
	check := opts.checkpoint()
	for gid := 0; gid < db.Len(); gid++ {
		g := db.Graph(gid)
		ok := enumeratePaths(g, ix.maxLen(), func(labels []graph.Label) bool {
			// Insert every suffix of the path; longer paths revisit the
			// shorter suffixes, sharing tree structure.
			for s := 0; s < len(labels); s++ {
				ix.insert(labels[s:], int32(gid))
			}
			features++
			if check.Tick() {
				return false
			}
			if opts.MaxFeatures > 0 && features > opts.MaxFeatures {
				return false
			}
			return true
		})
		if !ok {
			return ErrBudget
		}
	}
	debugCheckGGSX(ix) // sqdebug builds only; compiles away otherwise
	return nil
}

func (ix *GGSX) insert(labels []graph.Label, gid int32) {
	node := ix.root
	for _, l := range labels {
		if node.children == nil {
			node.children = make(map[graph.Label]*ggsxNode)
		}
		child := node.children[l]
		if child == nil {
			child = &ggsxNode{}
			node.children[l] = child
			ix.nodes++
		}
		node = child
	}
	if n := len(node.graphIDs); n == 0 || node.graphIDs[n-1] != gid {
		node.graphIDs = append(node.graphIDs, gid)
		ix.entries++
	}
}

// Filter implements Index: C(q) = graphs containing every path feature of q
// at least once.
func (ix *GGSX) Filter(q *graph.Graph) []int { //sqlint:ignore ctxbudget probe cost is bounded by the built suffix tree, not the data graphs
	return ix.FilterExplain(q, nil)
}

// FilterExplain implements Explainable: Filter plus a per-probe report of
// suffix-tree nodes visited and the presence-set intersection trajectory.
func (ix *GGSX) FilterExplain(q *graph.Graph, ex *obs.Explain) []int {
	fault.Inject(fault.PointIndexProbe)
	var t0 time.Time
	if ex != nil {
		t0 = time.Now()
	}
	probe := obs.IndexProbe{Index: "GGSX"}
	if ix.root == nil {
		finishProbe(ex, &probe, t0)
		return nil
	}
	features := countPaths(q, ix.maxLen())
	probe.Features = len(features)
	lists := make([]posting, 0, len(features))
	for _, key := range sortedKeys(features) {
		node := ix.lookup(key, &probe.NodesVisited)
		if node == nil {
			finishProbe(ex, &probe, t0)
			return nil
		}
		lists = append(lists, posting{ids: node.graphIDs})
	}
	cand := intersectPostings(lists, &probe, ex != nil)
	probe.Survivors = len(cand)
	finishProbe(ex, &probe, t0)
	if len(cand) == 0 {
		return nil
	}
	return toInts(cand)
}

func (ix *GGSX) lookup(key string, visited *int64) *ggsxNode {
	node := ix.root
	for i := 0; i < len(key); i += 4 {
		if node.children == nil {
			return nil
		}
		l := graph.Label(uint32(key[i]) | uint32(key[i+1])<<8 | uint32(key[i+2])<<16 | uint32(key[i+3])<<24)
		node = node.children[l]
		*visited++
		if node == nil {
			return nil
		}
	}
	return node
}

// MemoryFootprint implements Index.
func (ix *GGSX) MemoryFootprint() int64 {
	const nodeOverhead = 56
	return ix.nodes*nodeOverhead + ix.entries*4
}

// intersectSorted intersects two ascending id lists in place of the first,
// delegating to the shared kernel (merge scan with a galloping fallback for
// skewed posting-list lengths).
func intersectSorted(a, b []int32) []int32 {
	return graph.IntersectSorted(a[:0], a, b)
}
