package index

import (
	"time"

	"runtime"
	"slices"
	"sort"
	"sync"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// Grapes is the path-trie index of Giugno et al. [10]: every labeled simple
// path of up to MaxPathLength edges is enumerated exhaustively for every
// data graph and stored in a trie whose nodes carry per-graph occurrence
// counts. Filtering admits a data graph only if, for every path feature f
// of the query, the graph contains at least as many occurrences of f as the
// query does. Construction runs on a worker pool (the paper uses 6
// threads).
type Grapes struct {
	// MaxPathLength is the maximum feature length in edges;
	// 0 selects DefaultMaxPathLength.
	MaxPathLength int

	root      *grapesNode
	numGraphs int
	nodes     int64
	entries   int64
}

type grapesNode struct {
	children map[graph.Label]*grapesNode
	// graphIDs (ascending) and counts are parallel: counts[i] occurrences
	// of this node's path in graph graphIDs[i].
	graphIDs []int32
	counts   []int32
}

// Name implements Index.
func (*Grapes) Name() string { return "Grapes" }

func (ix *Grapes) maxLen() int {
	if ix.MaxPathLength <= 0 {
		return DefaultMaxPathLength
	}
	return ix.MaxPathLength
}

// Build implements Index. Path enumeration is parallel across data graphs;
// trie insertion happens in ascending graph id order so per-node id lists
// stay sorted.
func (ix *Grapes) Build(db *graph.Database, opts BuildOptions) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	var budgetErr error
	var mu sync.Mutex
	var used int64

	// Workers enumerate per-graph path counts and stream them to a single
	// merger goroutine that inserts into the trie immediately — bounded
	// memory instead of buffering every graph's feature map.
	type buildResult struct {
		gid    int32
		counts map[string]int32
	}
	results := make(chan buildResult, workers)
	mergeDone := make(chan struct{})
	ix.root = &grapesNode{}
	ix.nodes = 1
	ix.entries = 0
	ix.numGraphs = db.Len()
	go func() {
		defer close(mergeDone)
		for r := range results {
			for key, c := range r.counts {
				ix.insert(key, r.gid, c)
			}
		}
	}()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Keep draining after a budget failure so the producer
				// never blocks on a dead pool.
				mu.Lock()
				dead := budgetErr != nil
				mu.Unlock()
				if dead {
					continue
				}
				counts := make(map[string]int32)
				var local int64
				check := opts.checkpoint()
				ok := enumeratePaths(db.Graph(i), ix.maxLen(), func(labels []graph.Label) bool {
					counts[pathKey(labels)]++
					local++
					if check.Tick() {
						return false
					}
					if opts.MaxFeatures > 0 && local%8192 == 0 {
						mu.Lock()
						used += local
						local = 0
						over := used > opts.MaxFeatures
						mu.Unlock()
						if over {
							return false
						}
					}
					return true
				})
				if !ok {
					mu.Lock()
					budgetErr = ErrBudget
					mu.Unlock()
					continue
				}
				mu.Lock()
				used += local
				if opts.MaxFeatures > 0 && used > opts.MaxFeatures {
					budgetErr = ErrBudget
					mu.Unlock()
					continue
				}
				mu.Unlock()
				results <- buildResult{gid: int32(i), counts: counts}
			}
		}()
	}
	for i := 0; i < db.Len(); i++ {
		jobs <- i
		mu.Lock()
		stop := budgetErr != nil
		mu.Unlock()
		if stop {
			break
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-mergeDone
	if budgetErr != nil {
		ix.root = nil
		return budgetErr
	}
	ix.sortPostings()
	debugCheckGrapes(ix) // sqdebug builds only; compiles away otherwise
	return nil
}

// sortPostings orders every node's posting list by graph id; merging is
// out of order across workers.
func (ix *Grapes) sortPostings() {
	var walk func(n *grapesNode)
	walk = func(n *grapesNode) {
		if len(n.graphIDs) > 1 {
			idx := make([]int, len(n.graphIDs))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return n.graphIDs[idx[a]] < n.graphIDs[idx[b]] })
			ids := make([]int32, len(idx))
			counts := make([]int32, len(idx))
			for pos, i := range idx {
				ids[pos] = n.graphIDs[i]
				counts[pos] = n.counts[i]
			}
			n.graphIDs, n.counts = ids, counts
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.root)
}

func (ix *Grapes) insert(key string, gid, count int32) {
	node := ix.root
	for i := 0; i < len(key); i += 4 {
		l := graph.Label(uint32(key[i]) | uint32(key[i+1])<<8 | uint32(key[i+2])<<16 | uint32(key[i+3])<<24)
		if node.children == nil {
			node.children = make(map[graph.Label]*grapesNode)
		}
		child := node.children[l]
		if child == nil {
			child = &grapesNode{}
			node.children[l] = child
			ix.nodes++
		}
		node = child
	}
	node.graphIDs = append(node.graphIDs, gid)
	node.counts = append(node.counts, count)
	ix.entries++
}

// lookup returns the trie node of the given feature, or nil, counting the
// child hops the walk performed into *visited.
func (ix *Grapes) lookup(key string, visited *int64) *grapesNode {
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

// Filter implements Index: C(q) = graphs containing at least count_q(f)
// occurrences of every path feature f of q.
func (ix *Grapes) Filter(q *graph.Graph) []int { //sqlint:ignore ctxbudget probe cost is bounded by the built trie, not the data graphs
	return ix.FilterExplain(q, nil)
}

// FilterExplain implements Explainable: Filter plus a per-probe report of
// trie nodes visited and the occurrence-list intersection trajectory.
func (ix *Grapes) FilterExplain(q *graph.Graph, ex *obs.Explain) []int {
	fault.Inject(fault.PointIndexProbe)
	var t0 time.Time
	if ex != nil {
		t0 = time.Now()
	}
	probe := obs.IndexProbe{Index: "Grapes", Survivors: 0}
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
// ascending and, in Grapes, the feature's count in each graph beside the
// count the query needs.
type posting struct {
	ids, counts []int32
	need        int32
}

// sortedKeys returns the feature keys in ascending order. The path indexes
// look features up in this order, not in map order, so that one query
// visits the same nodes on every probe — a missing feature ends the probe
// at the same lookup each time.
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

// MemoryFootprint implements Index: nodes plus per-node posting lists.
func (ix *Grapes) MemoryFootprint() int64 {
	const nodeOverhead = 64 // struct, map header, child pointer amortized
	return ix.nodes*nodeOverhead + ix.entries*8
}

// allGraphIDs returns [0..n).
func allGraphIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
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

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}
