package index

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// Reference code for the flat path trie: the string-keyed path counting and
// the probe this package used before Build, InsertGraph and Filter walked
// the trie in lockstep with the graph. Tests compare against it; nothing
// else calls it.

// countPaths returns the number of occurrences of every path feature of g
// up to maxLen edges, keyed by pathKey.
func countPaths(g *graph.Graph, maxLen int) map[string]int32 {
	counts := make(map[string]int32)
	enumeratePaths(g, maxLen, func(labels []graph.Label) bool {
		counts[pathKey(labels)]++
		return true
	})
	return counts
}

// keyLabels decodes a pathKey back into its label sequence.
func keyLabels(key string) []graph.Label {
	var labels []graph.Label
	for i := 0; i < len(key); i += 4 {
		labels = append(labels, graph.Label(uint32(key[i])|uint32(key[i+1])<<8|uint32(key[i+2])<<16|uint32(key[i+3])<<24))
	}
	return labels
}

// lookupRef walks from the root to the node of the given label sequence and
// returns its posting list, or false if the trie has no such node.
func lookupRef(ix *PathTrie, labels []graph.Label) (posting, bool) {
	cur := uint32(0)
	for _, l := range labels {
		c := *ix.slot(cur, l)
		if c == 0 || ix.nodes.at(c).label != l {
			return posting{}, false
		}
		cur = c
	}
	p := posting{ids: ix.nodes.at(cur).ids}
	if ix.counted {
		p.counts = *ix.counts.at(cur)
	}
	return p, true
}

// refFilter is the reference probe: every distinct path of q looked up from
// the root in key order, every list intersected, shortest first.
func refFilter(ix *PathTrie, q *graph.Graph) []int {
	if ix.nodes.n == 0 {
		return nil
	}
	features := countPaths(q, DefaultMaxPathLength)
	keys := make([]string, 0, len(features))
	for key := range features {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var lists []posting
	for _, key := range keys {
		p, ok := lookupRef(ix, keyLabels(key))
		if !ok {
			return nil
		}
		p.need = features[key]
		lists = append(lists, p)
	}
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
	}
	if len(cand) == 0 {
		return nil
	}
	return toInts(cand)
}

// sameTrie reports whether two tries hold the same label sequences with the
// same posting lists — and, with counts set, the same counts beside them;
// without, p must carry none and c one per id. Node numbering may differ:
// it records insertion order, which a pooled build does not fix.
func sameTrie(p, c *PathTrie, counts bool) bool {
	if p.nodes.n != c.nodes.n || p.entries != c.entries {
		return false
	}
	countsOf := func(t *PathTrie, n uint32) []int32 {
		if t.counts.n == 0 {
			return nil
		}
		return *t.counts.at(n)
	}
	var same func(pn, cn uint32) bool
	same = func(pn, cn uint32) bool {
		a, b := p.nodes.at(pn), c.nodes.at(cn)
		if a.label != b.label || !slices.Equal(a.ids, b.ids) ||
			counts && !slices.Equal(countsOf(p, pn), countsOf(c, cn)) ||
			!counts && (p.counts.n != 0 || len(countsOf(c, cn)) != len(b.ids)) {
			return false
		}
		pc, cc := a.child, b.child
		for ; pc != 0 && cc != 0; pc, cc = p.nodes.at(pc).next, c.nodes.at(cc).next {
			if p.nodes.at(pc).parent != pn || c.nodes.at(cc).parent != cn || !same(pc, cc) {
				return false
			}
		}
		return pc == 0 && cc == 0
	}
	return same(0, 0)
}

type corpus struct {
	db      *graph.Database
	queries []*graph.Graph
}

// probeCorpora returns two generated databases, each with walk and BFS
// queries drawn from it, a query with a label the database lacks (the probe
// ends at its first vertex) and one whose labels all occur but whose path
// no graph holds.
func probeCorpora(t testing.TB) map[string]corpus {
	t.Helper()
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 30, NumVertices: 14, NumLabels: 3, Degree: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]corpus{}
	for name, db := range map[string]*graph.Database{"synthetic": syn, "aids": aids} {
		var queries []*graph.Graph
		for _, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
			qs, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 5, Edges: 5, Method: m, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, qs...)
		}
		queries = append(queries, graph.MustFromEdges([]graph.Label{0, 9999}, []graph.Edge{{U: 0, V: 1}}))
		// A star of five vertices of one label the database has: with
		// degree ≤ 4 everywhere some path of it is usually held nowhere.
		l := db.Graph(0).Label(0)
		queries = append(queries, graph.MustFromEdges([]graph.Label{l, l, l, l, l, l, l},
			[]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}}))
		out[name] = corpus{db, queries}
	}
	return out
}

// TestFilterMatchesReferenceProbe: the lockstep probe — maximal features
// only in a presence trie — returns what the reference probe does, for both
// configurations, built and grown by appends, and on the empty trie.
func TestFilterMatchesReferenceProbe(t *testing.T) {
	for name, c := range probeCorpora(t) {
		for _, mk := range []func() *PathTrie{func() *PathTrie { return new(GGSX) }, NewGrapes} {
			empty, built, grown := mk(), mk(), mk()
			if err := built.Build(c.db, BuildOptions{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			for gid := 0; gid < c.db.Len(); gid++ {
				if err := grown.InsertGraph(c.db.Graph(gid), gid); err != nil {
					t.Fatal(err)
				}
			}
			var missed int
			for qi, q := range c.queries {
				want := refFilter(built, q)
				if want == nil {
					missed++
				}
				for what, ix := range map[string]*PathTrie{"built": built, "grown": grown} {
					if got := ix.Filter(q); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s %s q%d: Filter %v, reference probe %v", name, ix.Name(), what, qi, got, want)
					}
				}
				if got := empty.Filter(q); got != nil {
					t.Errorf("%s %s q%d: empty trie returned %v", name, empty.Name(), qi, got)
				}
			}
			if missed == 0 || missed == len(c.queries) {
				t.Errorf("%s %s: %d of %d queries have no candidates; the corpus should have both kinds", name, built.Name(), missed, len(c.queries))
			}
		}
	}
}

// TestPooledBuildMatchesSequential: for both configurations, a build on 2,
// 3 or 4 workers yields the sequential trie — node for node, list for list,
// the same footprint and the same answers — and runs out of a feature
// budget exactly when the sequential build does.
func TestPooledBuildMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, c := range probeCorpora(t) {
		var features int64
		for _, g := range c.db.Graphs() {
			walkPaths(g, DefaultMaxPathLength, nil, 0, func(uint32, graph.Label) (uint32, bool) {
				features++
				return 0, true
			})
		}
		for _, mk := range []func() *PathTrie{func() *PathTrie { return new(GGSX) }, NewGrapes} {
			seq := mk()
			if err := seq.Build(c.db, BuildOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			for workers := 2; workers <= 4; workers++ {
				pooled := mk()
				if err := pooled.Build(c.db, BuildOptions{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				if !sameTrie(seq, pooled, true) || pooled.MemoryFootprint() != seq.MemoryFootprint() {
					t.Errorf("%s %s on %d workers: not the sequential trie", name, seq.Name(), workers)
				}
				for qi, q := range c.queries {
					if got, want := pooled.Filter(q), seq.Filter(q); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s on %d workers q%d: Filter %v, sequential %v", name, seq.Name(), workers, qi, got, want)
					}
				}
				for _, budget := range []int64{1, features / 2, features - 1, features} {
					errSeq := mk().Build(c.db, BuildOptions{Workers: 1, MaxFeatures: budget})
					errPooled := mk().Build(c.db, BuildOptions{Workers: workers, MaxFeatures: budget})
					if errPooled != errSeq || (errSeq == nil) != (budget == features) {
						t.Errorf("%s %s, %d of %d features on %d workers: %v, sequential %v", name, seq.Name(), budget, features, workers, errPooled, errSeq)
					}
				}
			}
		}
	}
}

// TestBuildWorkersClampToGOMAXPROCS: under a CPU quota of one, a build
// asked for four workers runs one.
func TestBuildWorkersClampToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := buildWorkers(BuildOptions{Workers: 4}); w != 1 {
		t.Errorf("Workers 4 at GOMAXPROCS 1: %d workers, want 1", w)
	}
	runtime.GOMAXPROCS(4)
	if w := buildWorkers(BuildOptions{Workers: 4}); w != 4 {
		t.Errorf("Workers 4 at GOMAXPROCS 4: %d workers, want 4", w)
	}
}

// TestTrieHeapMatchesFootprint: what a built presence trie keeps alive is
// what MemoryFootprint — the number behind the paper's index sizes — says,
// within a quarter.
func TestTrieHeapMatchesFootprint(t *testing.T) {
	db, err := gen.Real(gen.AIDS, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	var ix GGSX
	if err := ix.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	heap := float64(live() - before)
	runtime.KeepAlive(db) // or its release would be counted against the trie
	footprint := float64(ix.MemoryFootprint())
	t.Logf("%d nodes, %d entries: live heap %.2f MB, MemoryFootprint %.2f MB (%.2f×)", ix.nodes.n, ix.entries, heap/1e6, footprint/1e6, heap/footprint)
	if heap > 1.25*footprint {
		t.Errorf("live heap %.0f B is %.2f× MemoryFootprint %.0f B, want ≤ 1.25×", heap, heap/footprint, footprint)
	}
	runtime.KeepAlive(&ix)
}

// TestWarmPresenceProbeAllocatesItsResult: everything a presence probe
// needs besides the ids it returns comes from the pooled scratch.
func TestWarmPresenceProbeAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for name, c := range probeCorpora(t) {
		var ix GGSX
		if err := ix.Build(c.db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range c.queries {
			ix.Filter(q)
			if allocs := testing.AllocsPerRun(20, func() { ix.Filter(q) }); allocs > 1 {
				t.Errorf("%s q%d: a warm probe allocates %.0f objects, want at most its result", name, qi, allocs)
			}
		}
	}
}

// TestConcurrentProbesShareOneTrie: probes take their scratch from a pool,
// so any number may run against one index at once (run under -race).
func TestConcurrentProbesShareOneTrie(t *testing.T) {
	for name, c := range probeCorpora(t) {
		for _, ix := range []*PathTrie{new(GGSX), NewGrapes()} {
			if err := ix.Build(c.db, BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			want := make([][]int, len(c.queries))
			for qi, q := range c.queries {
				want[qi] = ix.Filter(q)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						qi := (w + round) % len(c.queries)
						if got := ix.Filter(c.queries[qi]); !reflect.DeepEqual(got, want[qi]) {
							t.Errorf("%s %s q%d: concurrent probe %v, alone %v", name, ix.Name(), qi, got, want[qi])
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
}
