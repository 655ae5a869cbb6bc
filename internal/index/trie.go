package index

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphquery/internal/budget"
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
//     query at least as often as the query does; the paper builds it with
//     6 threads.
//   - GGSX (the zero value) keeps presence only — the reason its filtering
//     precision trails Grapes' in the paper's Figure 8 — and the original
//     builds it sequentially. Its "suffix tree" is this trie:
//     every suffix of a simple path is itself a simple path, enumerated
//     from its own start vertex, so inserting each enumerated path once
//     yields node for node what inserting all its suffixes does (DESIGN.md,
//     "One matcher, one trie, one posting table").
//
// The trie is one flat node store, and Build, InsertGraph and Filter all
// walk it in lockstep with the depth-first walk over a graph's paths
// (walkPaths): the cursor of a path is its node, so a path instance costs
// one child hop from its prefix's node (DESIGN.md, "One flat trie").
type PathTrie struct {
	counted bool

	// Node 0 is the root, the empty path; there is none until Build or
	// InsertGraph.
	nodes chunked[trieNode]
	// counts, in a counted trie only, runs parallel to nodes: the i-th count
	// of node n is the number of occurrences of n's path in its i-th graph.
	counts    chunked[[]int32]
	numGraphs int
	entries   int64
}

// chunked is an append-only array in fixed-size chunks, so that growing it
// moves nothing: an append to a built trie never copies the trie, and a
// build allocates each node once.
type chunked[T any] struct {
	chunks []*[chunkSize]T
	n      uint32
}

const chunkSize = 1 << 12

func (a *chunked[T]) at(i uint32) *T { return &a.chunks[i/chunkSize][i%chunkSize] }

func (a *chunked[T]) push(v T) uint32 {
	if int(a.n/chunkSize) == len(a.chunks) {
		a.chunks = append(a.chunks, new([chunkSize]T))
	}
	*a.at(a.n) = v
	a.n++
	return a.n - 1
}

// GGSX is the presence configuration of the path trie, its zero value.
type GGSX = PathTrie

// NewGrapes returns the counted configuration of the path trie.
func NewGrapes() *PathTrie { return &PathTrie{counted: true} }

// trieNode is one label sequence. Nodes address each other by position in
// PathTrie.nodes; 0, the root, is nobody's child or sibling and so doubles
// as "none".
type trieNode struct {
	label  graph.Label
	parent uint32
	// child is the first child and next the next sibling, siblings in
	// ascending label order whatever order they were inserted in.
	child, next uint32
	// ids lists, ascending, the graphs holding this node's path.
	ids []int32
}

// Name implements Index.
func (ix *PathTrie) Name() string {
	if ix.counted {
		return "Grapes"
	}
	return "GGSX"
}

// reset empties the trie to its root.
func (ix *PathTrie) reset() {
	ix.nodes, ix.counts, ix.entries = chunked[trieNode]{}, chunked[[]int32]{}, 0
	ix.addNode(trieNode{})
}

func (ix *PathTrie) addNode(n trieNode) uint32 {
	if ix.counted {
		ix.counts.push(nil)
	}
	return ix.nodes.push(n)
}

// slot returns the link — cur's child field or a sibling's next — that
// holds cur's child labelled l, or where that child belongs.
func (ix *PathTrie) slot(cur uint32, l graph.Label) *uint32 {
	link := &ix.nodes.at(cur).child
	for *link != 0 {
		n := ix.nodes.at(*link)
		if n.label >= l {
			break
		}
		link = &n.next
	}
	return link
}

// descend returns cur's child labelled l, adding it if need be.
func (ix *PathTrie) descend(cur uint32, l graph.Label) uint32 {
	link := ix.slot(cur, l)
	if c := *link; c != 0 && ix.nodes.at(c).label == l {
		return c
	}
	*link = ix.addNode(trieNode{label: l, parent: cur, next: *link})
	return *link
}

// featureBudget is BuildOptions.MaxFeatures shared by a build's workers,
// who settle what they enumerated in batches and at the end of each graph.
type featureBudget struct {
	max  int64
	used atomic.Int64
}

const featureBatch = 8192

func (b *featureBudget) spend(n int64) bool { return b.max <= 0 || b.used.Add(n) <= b.max }

// addGraph posts gid at the node of every path of g, with its number of
// instances in a counted trie. gid is the largest id posted so far. It
// reports false once the checkpoint or the budget says stop.
func (ix *PathTrie) addGraph(g *graph.Graph, gid int32, check *budget.Checkpoint, features *featureBudget) bool {
	var unsettled int64
	ok := walkPaths(g, DefaultMaxPathLength, nil, 0, func(cur uint32, l graph.Label) (uint32, bool) {
		c := ix.descend(cur, l)
		n := ix.nodes.at(c)
		if last := len(n.ids) - 1; last < 0 || n.ids[last] != gid {
			n.ids = append(n.ids, gid)
			ix.entries++
			if ix.counted {
				*ix.counts.at(c) = append(*ix.counts.at(c), 1)
			}
		} else if ix.counted {
			(*ix.counts.at(c))[last]++
		}
		if unsettled++; unsettled == featureBatch {
			if !features.spend(featureBatch) {
				return c, false
			}
			unsettled = 0
		}
		return c, !check.Tick()
	})
	return ok && features.spend(unsettled)
}

// Build implements Index. Each of the build's workers — opts.Workers of
// them, at most GOMAXPROCS — takes the next unclaimed graph, in ascending id
// order, into a trie of its own, so its posting lists are born ascending; the
// first worker's trie is ix itself, and the others' are merged into it at the
// end. The first worker to overdraw the feature budget, or to run into the
// deadline, fails the build.
func (ix *PathTrie) Build(db *graph.Database, opts BuildOptions) error {
	ix.numGraphs = db.Len()
	parts := []*PathTrie{ix}
	for w := buildWorkers(opts); len(parts) < w; {
		parts = append(parts, &PathTrie{counted: ix.counted})
	}
	features := featureBudget{max: opts.MaxFeatures}
	var next atomic.Int64
	var failed atomic.Bool
	work := func(part *PathTrie) {
		check := opts.checkpoint()
		part.reset()
		for gid := next.Add(1) - 1; gid < int64(db.Len()) && !failed.Load(); gid = next.Add(1) - 1 {
			if !part.addGraph(db.Graph(int(gid)), int32(gid), &check, &features) {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for _, part := range parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(part)
		}()
	}
	work(ix)
	wg.Wait()
	if failed.Load() {
		*ix = PathTrie{counted: ix.counted}
		return ErrBudget
	}
	for _, part := range parts[1:] {
		ix.merge(0, part, 0)
	}
	debugCheckTrie(ix) // sqdebug builds only; compiles away otherwise
	return nil
}

// buildWorkers is the number of workers a build runs: opts.Workers within
// [1, GOMAXPROCS], since more than the scheduler runs at once only adds
// switches and tries to merge.
func buildWorkers(opts BuildOptions) int {
	return min(max(opts.Workers, 1), runtime.GOMAXPROCS(0))
}

// merge adds the subtrie of part under src to ix under dst. The two tries
// hold disjoint graphs and each list is ascending, so one linear merge per
// node keeps it so; part is dropped afterwards, so its lists may be reused.
func (ix *PathTrie) merge(dst uint32, part *PathTrie, src uint32) {
	from, to := part.nodes.at(src), ix.nodes.at(dst)
	if ix.counted { // before the ids, which the merge of the counts reads
		*ix.counts.at(dst) = mergeBy(to.ids, from.ids, *ix.counts.at(dst), *part.counts.at(src))
	}
	to.ids = mergeBy(to.ids, from.ids, to.ids, from.ids)
	ix.entries += int64(len(from.ids))
	for c := from.child; c != 0; c = part.nodes.at(c).next {
		ix.merge(ix.descend(dst, part.nodes.at(c).label), part, c)
	}
}

// mergeBy returns x and y, which run parallel to the disjoint ascending id
// lists a and b, merged in the order that merges a and b. It writes from the
// back into whichever of x and y has the spare capacity to hold both — no
// write overtakes a read — or else into an array of their joint length.
func mergeBy(a, b, x, y []int32) []int32 {
	n := len(x) + len(y)
	var out []int32
	switch {
	case cap(x) >= n:
		out = x[:n]
	case cap(y) >= n:
		out = y[:n]
	default:
		out = make([]int32, n)
	}
	for i, j, k := len(a)-1, len(b)-1, n-1; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i] > b[j]) {
			out[k], i = x[i], i-1
		} else {
			out[k], j = y[j], j-1
		}
	}
	return out
}

// InsertGraph implements Appender: gid is the largest id so far, so every
// posting list it joins stays ascending.
func (ix *PathTrie) InsertGraph(g *graph.Graph, gid int) error {
	if ix.nodes.n == 0 {
		ix.reset()
	}
	ix.addGraph(g, int32(gid), &budget.Checkpoint{}, &featureBudget{})
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
	var out []int
	if ix.nodes.n != 0 {
		s := probePool.Get().(*probeScratch)
		out = ix.probe(q, s, &probe, ex != nil)
		probePool.Put(s)
	}
	finishProbe(ex, &probe, t0)
	return out
}

// probeScratch is what a probe needs besides its result. Probes of one trie
// run concurrently, so it is pooled, not a field.
type probeScratch struct {
	onPath []bool
	// at and feats are a sparse set of the trie nodes the query's walk
	// reached: node n is in it iff feats[at[n]].node == n.
	at    []uint32
	feats []posting
	cand  []int32
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// posting is one distinct path of the query and the occurrence list it
// selects: its node, its number of instances in the query, whether the
// query also holds an extension of it, and — filled in once the walk is
// done — the node's graph ids, ascending, with its counts in a counted trie.
type posting struct {
	node        uint32
	need        int32
	extended    bool
	ids, counts []int32
}

// probe walks q's paths and the trie together — a path no graph holds ends
// the probe — and intersects the posting lists of the nodes reached. A
// presence trie intersects the maximal ones only: a graph holding a path
// holds every prefix of it, so a prefix's list is a superset of its
// extension's and cannot remove anything. A count says nothing about a
// prefix's count, so a counted trie intersects them all.
func (ix *PathTrie) probe(q *graph.Graph, s *probeScratch, probe *obs.IndexProbe, record bool) []int {
	if len(s.at) < int(ix.nodes.n) {
		s.at = make([]uint32, ix.nodes.n+ix.nodes.n/4)
	}
	if len(s.onPath) < q.NumVertices() {
		s.onPath = make([]bool, q.NumVertices())
	}
	feats := s.feats[:0]
	held := walkPaths(q, DefaultMaxPathLength, s.onPath, 0, func(cur uint32, l graph.Label) (uint32, bool) {
		probe.NodesVisited++
		c := *ix.slot(cur, l)
		if c == 0 || ix.nodes.at(c).label != l {
			return 0, false
		}
		i := s.at[c]
		if int(i) >= len(feats) || feats[i].node != c {
			i = uint32(len(feats))
			s.at[c] = i
			feats = append(feats, posting{node: c})
		}
		feats[i].need++
		if cur != 0 {
			feats[s.at[cur]].extended = true
		}
		return c, true
	})
	s.feats = feats
	if !held {
		return nil
	}
	lists := feats[:0]
	for _, f := range feats {
		if f.ids = ix.nodes.at(f.node).ids; ix.counted {
			f.counts = *ix.counts.at(f.node)
		} else if f.extended {
			continue
		}
		lists = append(lists, f)
	}
	probe.Features = len(lists)
	s.cand = intersectPostings(lists, s.cand[:0], probe, record)
	clear(lists) // the pool must not keep a replaced trie's lists alive
	probe.Survivors = len(s.cand)
	if len(s.cand) == 0 {
		return nil
	}
	return toInts(s.cand)
}

// intersectPostings returns, in buf, the graphs present — often enough,
// where the lists carry counts — on every list: shortest list first, so the
// running set starts at its size rather than at |D|, ties in the order the
// query's walk reached them. With record set the size after each list goes
// on the probe.
func intersectPostings(lists []posting, buf []int32, probe *obs.IndexProbe, record bool) []int32 {
	slices.SortStableFunc(lists, func(a, b posting) int { return len(a.ids) - len(b.ids) })
	cand := buf
	for i, p := range lists {
		if i == 0 {
			cand = append(cand, p.ids...)
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
			break
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
	nodes := int64(ix.nodes.n)
	if ix.counted {
		return nodes*64 + ix.entries*8
	}
	return nodes*56 + ix.entries*4
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
// otherwise), counts exactly where the configuration keeps them, sibling
// chains in strictly ascending label order under the parent they name (so
// no label twice and no cycle), and every stored node on exactly one chain
// with the entries counter matching the lists (MemoryFootprint feeds the
// paper's reported index sizes). No-op outside sqdebug builds.
func debugCheckTrie(ix *PathTrie) {
	if !debugInvariants || ix.nodes.n == 0 {
		return
	}
	if want := ix.nodes.n; ix.counted && ix.counts.n != want || !ix.counted && ix.counts.n != 0 {
		debugFailf("%s has %d nodes but %d counts lists", ix.Name(), want, ix.counts.n)
	}
	chained, entries := uint32(1), int64(0) // the root is on no chain
	for i := uint32(0); i < ix.nodes.n; i++ {
		n := ix.nodes.at(i)
		var counts []int32
		if ix.counted {
			if counts = *ix.counts.at(i); len(counts) != len(n.ids) {
				debugFailf("%s node %d has %d ids but %d counts", ix.Name(), i, len(n.ids), len(counts))
			}
		}
		for j, id := range n.ids {
			if int(id) >= ix.numGraphs || id < 0 {
				debugFailf("%s node %d lists graph %d outside [0,%d)", ix.Name(), i, id, ix.numGraphs)
			}
			if j > 0 && n.ids[j-1] >= id {
				debugFailf("%s posting list of node %d not strictly ascending at position %d", ix.Name(), i, j)
			}
			if ix.counted && counts[j] <= 0 {
				debugFailf("%s node %d has non-positive count %d for graph %d", ix.Name(), i, counts[j], id)
			}
		}
		entries += int64(len(n.ids))
		for prev, c := uint32(0), n.child; c != 0; prev, c = c, ix.nodes.at(c).next {
			if c >= ix.nodes.n || ix.nodes.at(c).parent != i {
				debugFailf("%s node %d has child %d, which names another parent", ix.Name(), i, c)
			}
			if prev != 0 && ix.nodes.at(prev).label >= ix.nodes.at(c).label {
				debugFailf("%s children of node %d not in strictly ascending label order at node %d", ix.Name(), i, c)
			}
			chained++
		}
	}
	if chained != ix.nodes.n {
		debugFailf("%s stores %d nodes, chains reach %d", ix.Name(), ix.nodes.n, chained)
	}
	if entries != ix.entries {
		debugFailf("%s entries counter %d, walked %d", ix.Name(), ix.entries, entries)
	}
}

func debugFailf(format string, args ...any) {
	panic("sqdebug: index: " + fmt.Sprintf(format, args...))
}
