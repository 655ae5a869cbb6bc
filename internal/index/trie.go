package index

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// PathTrie is the one index behind Grapes [10] and GGSX (GraphGrepSX) [2]:
// every labeled simple path of up to DefaultMaxPathLength edges of every
// data graph, enumerated exhaustively into a trie over label sequences
// whose nodes list the graphs holding that path. The two algorithms are
// its two configurations:
//
//   - Grapes (NewGrapes) keeps per-graph occurrence counts beside the ids
//     and admits a data graph only if it holds every path feature of the
//     query at least as often as the query does; construction runs on a
//     worker pool (the paper uses 6 threads).
//   - GGSX (the zero value) keeps presence only — the reason its filtering
//     precision trails Grapes' in the paper's Figure 8 — and builds
//     sequentially, like the original. Its "suffix tree" is this trie:
//     every suffix of a simple path is itself a simple path, enumerated
//     from its own start vertex, so inserting each enumerated path once
//     yields node for node what inserting all its suffixes does (DESIGN.md,
//     "One matcher, one trie, one posting table").
type PathTrie struct {
	counted bool

	root      *trieNode
	numGraphs int
	nodes     int64
	entries   int64
}

// GGSX is the presence configuration of the path trie, its zero value.
type GGSX = PathTrie

// NewGrapes returns the counted, pool-built configuration of the path trie.
func NewGrapes() *PathTrie { return &PathTrie{counted: true} }

type trieNode struct {
	children map[graph.Label]*trieNode
	// graphIDs lists, ascending, the graphs holding this node's path; in a
	// counted trie counts[i] is its number of occurrences in graphIDs[i].
	graphIDs []int32
	counts   []int32
}

// Name implements Index.
func (ix *PathTrie) Name() string {
	if ix.counted {
		return "Grapes"
	}
	return "GGSX"
}

// Build implements Index.
func (ix *PathTrie) Build(db *graph.Database, opts BuildOptions) error {
	*ix = PathTrie{counted: ix.counted, root: &trieNode{}, nodes: 1, numGraphs: db.Len()}
	build := ix.buildSequential
	if ix.counted {
		build = ix.buildPooled
	}
	if !build(db, opts) {
		ix.root = nil
		return ErrBudget
	}
	debugCheckTrie(ix) // sqdebug builds only; compiles away otherwise
	return nil
}

// buildSequential inserts every enumerated path as it is found, graph by
// graph, so posting lists are born ascending.
func (ix *PathTrie) buildSequential(db *graph.Database, opts BuildOptions) bool {
	var features int64
	check := opts.checkpoint()
	for gid := 0; gid < db.Len(); gid++ {
		ok := enumeratePaths(db.Graph(gid), DefaultMaxPathLength, func(labels []graph.Label) bool {
			ix.insert(labels, int32(gid), 0)
			features++
			return !check.Tick() && (opts.MaxFeatures <= 0 || features <= opts.MaxFeatures)
		})
		if !ok {
			return false
		}
	}
	return true
}

// buildPooled counts paths per graph on opts.Workers workers and streams
// each graph's counts to one merger that inserts them immediately — bounded
// memory instead of buffering every graph's feature map. Graphs arrive out
// of order, so the posting lists are sorted at the end.
func (ix *PathTrie) buildPooled(db *graph.Database, opts BuildOptions) bool {
	workers := min(max(opts.Workers, 1), runtime.NumCPU())
	type graphCounts struct {
		gid    int32
		counts map[string]int32
	}
	results := make(chan graphCounts, workers) // one finished graph per worker in flight
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		for r := range results {
			ix.insertCounts(r.counts, r.gid)
		}
	}()

	// The feature budget is shared: workers settle what they enumerated in
	// batches and at the end of each graph, and the first to overdraw it —
	// or to run into the deadline — fails the build.
	var used atomic.Int64
	var failed atomic.Bool
	const batch = 8192
	spend := func(n int64) bool { return opts.MaxFeatures <= 0 || used.Add(n) <= opts.MaxFeatures }

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue // keep draining so the producer never blocks
				}
				counts := make(map[string]int32)
				var unsettled int64
				check := opts.checkpoint()
				ok := enumeratePaths(db.Graph(i), DefaultMaxPathLength, func(labels []graph.Label) bool {
					counts[pathKey(labels)]++
					if unsettled++; unsettled == batch {
						if !spend(batch) {
							return false
						}
						unsettled = 0
					}
					return !check.Tick()
				})
				if !ok || !spend(unsettled) {
					failed.Store(true)
					continue
				}
				results <- graphCounts{gid: int32(i), counts: counts}
			}
		}()
	}
	for i := 0; i < db.Len() && !failed.Load(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-merged
	if failed.Load() {
		return false
	}
	sortPostings(ix.root)
	return true
}

// postingsByGraph sorts a node's parallel id and count lists by id.
type postingsByGraph trieNode

func (p *postingsByGraph) Len() int           { return len(p.graphIDs) }
func (p *postingsByGraph) Less(i, j int) bool { return p.graphIDs[i] < p.graphIDs[j] }
func (p *postingsByGraph) Swap(i, j int) {
	p.graphIDs[i], p.graphIDs[j] = p.graphIDs[j], p.graphIDs[i]
	p.counts[i], p.counts[j] = p.counts[j], p.counts[i]
}

func sortPostings(n *trieNode) {
	sort.Sort((*postingsByGraph)(n))
	for _, c := range n.children {
		sortPostings(c)
	}
}

// insert records that graph gid holds the path with the given labels, count
// times in a counted trie. A presence trie sees one call per occurrence, in
// ascending gid, and keeps the first.
func (ix *PathTrie) insert(labels []graph.Label, gid, count int32) {
	node := ix.root
	for _, l := range labels {
		if node.children == nil {
			node.children = make(map[graph.Label]*trieNode)
		}
		child := node.children[l]
		if child == nil {
			child = &trieNode{}
			node.children[l] = child
			ix.nodes++
		}
		node = child
	}
	if ix.counted {
		node.counts = append(node.counts, count)
	} else if n := len(node.graphIDs); n > 0 && node.graphIDs[n-1] == gid {
		return
	}
	node.graphIDs = append(node.graphIDs, gid)
	ix.entries++
}

// insertCounts inserts one graph's path counts, as countPaths keys them.
func (ix *PathTrie) insertCounts(counts map[string]int32, gid int32) {
	var buf [DefaultMaxPathLength + 1]graph.Label
	for key, c := range counts {
		ix.insert(keyLabels(buf[:0], key), gid, c)
	}
}

// lookup returns the trie node of the feature with the given pathKey, or
// nil, counting the child hops the walk performed into *visited.
func (ix *PathTrie) lookup(key string, visited *int64) *trieNode {
	var buf [DefaultMaxPathLength + 1]graph.Label
	node := ix.root
	for _, l := range keyLabels(buf[:0], key) {
		if node.children == nil {
			return nil
		}
		node = node.children[l]
		*visited++
		if node == nil {
			return nil
		}
	}
	return node
}

// InsertGraph implements Appender: gid is the largest id so far, so every
// posting list it joins stays ascending.
func (ix *PathTrie) InsertGraph(g *graph.Graph, gid int) error {
	if ix.root == nil {
		ix.root = &trieNode{}
		ix.nodes = 1
	}
	if ix.counted {
		ix.insertCounts(countPaths(g, DefaultMaxPathLength), int32(gid))
	} else {
		enumeratePaths(g, DefaultMaxPathLength, func(labels []graph.Label) bool {
			ix.insert(labels, int32(gid), 0)
			return true
		})
	}
	ix.numGraphs = max(ix.numGraphs, gid+1)
	return nil
}

// Filter implements Index: C(q) = the graphs holding every path feature of
// q — in a counted trie, at least as often as q does.
func (ix *PathTrie) Filter(q *graph.Graph) []int { //sqlint:ignore ctxbudget probe cost is bounded by the built trie, not the data graphs
	return ix.FilterExplain(q, nil)
}

// FilterExplain implements Explainable: Filter plus a per-probe report of
// trie nodes visited and the posting-list intersection trajectory.
func (ix *PathTrie) FilterExplain(q *graph.Graph, ex *obs.Explain) []int {
	fault.Inject(fault.PointIndexProbe)
	var t0 time.Time
	if ex != nil {
		t0 = time.Now()
	}
	probe := obs.IndexProbe{Index: ix.Name()}
	if ix.root == nil {
		finishProbe(ex, &probe, t0)
		return nil
	}
	features := countPaths(q, DefaultMaxPathLength)
	probe.Features = len(features)
	lists := make([]posting, 0, len(features))
	for _, key := range sortedKeys(features) {
		node := ix.lookup(key, &probe.NodesVisited)
		if node == nil {
			finishProbe(ex, &probe, t0)
			return nil
		}
		lists = append(lists, posting{ids: node.graphIDs, counts: node.counts, need: features[key]})
	}
	cand := intersectPostings(lists, &probe, ex != nil)
	probe.Survivors = len(cand)
	finishProbe(ex, &probe, t0)
	if len(cand) == 0 {
		return nil
	}
	return toInts(cand)
}

// posting is the occurrence list one query feature selects: graph ids
// ascending and, in a counted trie, the feature's count in each graph beside
// the count the query needs.
type posting struct {
	ids, counts []int32
	need        int32
}

// sortedKeys returns the feature keys in ascending order. The probe looks
// features up in this order, not in map order, so that one query visits the
// same nodes on every probe — a missing feature ends the probe at the same
// lookup each time.
func sortedKeys(features map[string]int32) []string {
	keys := make([]string, 0, len(features))
	for key := range features {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// intersectPostings returns the graphs present — often enough, where the
// lists carry counts — on every list: shortest list first, so the running
// set starts at its size rather than at |D|, ties in key order. With record
// set the size after each list goes on the probe.
func intersectPostings(lists []posting, probe *obs.IndexProbe, record bool) []int32 {
	sort.SliceStable(lists, func(i, j int) bool { return len(lists[i].ids) < len(lists[j].ids) })
	var cand []int32
	for i, p := range lists {
		if i == 0 {
			cand = slices.Clone(p.ids)
		}
		if p.counts != nil {
			cand = retainWithCount(cand, p.ids, p.counts, p.need)
		} else if i > 0 {
			cand = intersectSorted(cand, p.ids)
		}
		if record {
			probe.IntersectionSizes = append(probe.IntersectionSizes, len(cand))
		}
		if len(cand) == 0 {
			return nil
		}
	}
	return cand
}

// finishProbe stamps the probe's duration and records it (no-op with a
// nil Explain).
func finishProbe(ex *obs.Explain, p *obs.IndexProbe, t0 time.Time) {
	if ex == nil {
		return
	}
	p.DurationUS = time.Since(t0).Microseconds()
	ex.ObserveIndexProbe(*p)
}

// MemoryFootprint implements Index: nodes (struct, map header, child
// pointer amortized) plus per-node posting lists, 4 bytes an id and 4 a
// count.
func (ix *PathTrie) MemoryFootprint() int64 {
	if ix.counted {
		return ix.nodes*64 + ix.entries*8
	}
	return ix.nodes*56 + ix.entries*4
}

// retainWithCount intersects the sorted candidate ids with the sorted
// posting list, keeping ids whose count meets the requirement. When the
// posting list dwarfs the surviving candidate set — the common case after a
// few selective features — it gallops through the list instead of scanning
// it linearly.
func retainWithCount(cand, ids []int32, counts []int32, need int32) []int32 {
	out := cand[:0]
	j := 0
	gallop := len(ids) >= 16*len(cand)
	for _, c := range cand {
		if gallop {
			j = graph.LowerBound(ids, j, c)
		} else {
			for j < len(ids) && ids[j] < c {
				j++
			}
		}
		if j < len(ids) && ids[j] == c && counts[j] >= need {
			out = append(out, c)
		}
	}
	return out
}

// intersectSorted intersects two ascending id lists in place of the first,
// delegating to the shared kernel (merge scan with a galloping fallback for
// skewed posting-list lengths).
func intersectSorted(a, b []int32) []int32 {
	return graph.IntersectSorted(a[:0], a, b)
}

// allGraphIDs returns [0..n).
func allGraphIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}

// debugCheckTrie panics if the trie violates an invariant the probe or the
// reported index size relies on: strictly ascending posting lists of known
// graphs (the intersection silently returns wrong candidate sets
// otherwise), counts exactly where the configuration keeps them, and
// nodes/entries counters matching the real tree (MemoryFootprint feeds the
// paper's reported index sizes). No-op outside sqdebug builds.
func debugCheckTrie(ix *PathTrie) {
	if !debugInvariants || ix.root == nil {
		return
	}
	var nodes, entries int64
	var walk func(n *trieNode, depth int)
	walk = func(n *trieNode, depth int) {
		nodes++
		if want := len(n.graphIDs); ix.counted && len(n.counts) != want || !ix.counted && n.counts != nil {
			debugFailf("%s node at depth %d has %d ids but %d counts", ix.Name(), depth, want, len(n.counts))
		}
		for i, id := range n.graphIDs {
			if int(id) >= ix.numGraphs || id < 0 {
				debugFailf("%s node at depth %d lists graph %d outside [0,%d)", ix.Name(), depth, id, ix.numGraphs)
			}
			if i > 0 && n.graphIDs[i-1] >= id {
				debugFailf("%s posting list at depth %d not strictly ascending at position %d", ix.Name(), depth, i)
			}
			if ix.counted && n.counts[i] <= 0 {
				debugFailf("%s node at depth %d has non-positive count %d for graph %d", ix.Name(), depth, n.counts[i], id)
			}
		}
		entries += int64(len(n.graphIDs))
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(ix.root, 0)
	if nodes != ix.nodes {
		debugFailf("%s nodes counter %d, walked %d", ix.Name(), ix.nodes, nodes)
	}
	if entries != ix.entries {
		debugFailf("%s entries counter %d, walked %d", ix.Name(), ix.entries, entries)
	}
}

func debugFailf(format string, args ...any) {
	panic("sqdebug: index: " + fmt.Sprintf(format, args...))
}
