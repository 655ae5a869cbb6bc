package index

import (
	"slices"
	"sort"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
)

// Mined is the one posting table behind the mining-based indexes of the
// paper's Table II (gIndex, TreePi, FG-Index): instead of storing every
// enumerated feature the way the path trie does, Build mines the feature
// set — a feature keeps its posting list only if enough data graphs hold
// it — and Filter intersects the lists of the query's kept features. Query
// features mined away are skipped, which costs precision and never
// correctness. That is §II-B's trade: cheaper storage than exhaustive
// enumeration for a costlier, parameter-sensitive build. The three indexes
// are three miners over it: NewGIndex, NewTreePi, NewFGIndex.
type Mined struct {
	miner
	// support is the minimum fraction of data graphs holding a kept feature.
	support float64

	features  map[string][]int32 // canonical feature -> ascending graph ids
	numGraphs int
}

// miner is what distinguishes one mining-based index from another.
type miner struct {
	name string
	// enumerate visits the canonical code of every feature instance of g
	// (one feature may come up many times) until visit returns false, and
	// reports whether it ran to the end.
	enumerate func(g *graph.Graph, visit func(code string) bool) bool
	// anchor recognises the single-vertex features. They are kept whatever
	// their support, so that one missing from the table means its label
	// occurs in no data graph.
	anchor func(code string) bool
	// discriminative, when non-nil, is asked of every frequent feature, in
	// order of code length, whether it prunes enough beyond the features
	// already kept to be worth its posting list.
	discriminative func(ix *Mined, code string, ids []int32) bool
	// whole, when non-nil, returns the code of q taken as one feature, if q
	// is small enough to be one. A kept feature's posting list is then the
	// answer set itself: FG-Index's verification-free query processing.
	whole func(q *graph.Graph) (code string, ok bool)
}

// defaultSupportRatio is the mining threshold of all three indexes.
const defaultSupportRatio = 0.05

// Name implements Index.
func (ix *Mined) Name() string { return ix.name }

// Build implements Index: enumerate every feature instance of every data
// graph (the expensive part §II-B attributes to mining-based methods) into
// posting lists, then keep the anchors and the frequent — and, where the
// miner asks, discriminative — features, short codes first so that a
// discriminative test can consult the kept sub-features.
func (ix *Mined) Build(db *graph.Database, opts BuildOptions) error {
	ix.numGraphs = db.Len()
	ix.features = nil
	postings := make(map[string][]int32)
	var instances int64
	check := opts.checkpoint()
	for gid := 0; gid < db.Len(); gid++ {
		ok := ix.enumerate(db.Graph(gid), func(code string) bool {
			instances++
			if check.Tick() || opts.MaxFeatures > 0 && instances > opts.MaxFeatures {
				return false
			}
			if ids := postings[code]; len(ids) == 0 || ids[len(ids)-1] != int32(gid) {
				postings[code] = append(ids, int32(gid))
			}
			return true
		})
		if !ok {
			return ErrBudget
		}
	}

	minSupport := max(int(ix.support*float64(db.Len())), 1)
	codes := make([]string, 0, len(postings))
	for code := range postings {
		codes = append(codes, code)
	}
	sort.Slice(codes, func(i, j int) bool {
		if len(codes[i]) != len(codes[j]) {
			return len(codes[i]) < len(codes[j])
		}
		return codes[i] < codes[j]
	})
	ix.features = make(map[string][]int32)
	for _, code := range codes {
		ids := postings[code]
		if ix.anchor(code) || len(ids) >= minSupport && (ix.discriminative == nil || ix.discriminative(ix, code, ids)) {
			ix.features[code] = ids
		}
	}
	return nil
}

// Filter implements Index.
func (ix *Mined) Filter(q *graph.Graph) []int {
	ids, _ := ix.FilterExact(q)
	return ids
}

// FilterExact implements ExactFilter: the candidate ids, and whether they
// are already the exact answer set — the miner took the query whole and the
// table holds it. A small query absent from the table can still have
// answers if it was mined away, so a miss falls through to filtering.
func (ix *Mined) FilterExact(q *graph.Graph) ([]int, bool) {
	fault.Inject(fault.PointIndexProbe)
	if ix.features == nil {
		return nil, false
	}
	if ix.whole != nil {
		if code, ok := ix.whole(q); ok {
			if ids, ok := ix.features[code]; ok {
				return toInts(slices.Clone(ids)), true
			}
		}
	}
	needed := make(map[string]bool)
	ix.enumerate(q, func(code string) bool {
		needed[code] = true
		return true
	})
	cand := allGraphIDs(ix.numGraphs)
	for code := range needed {
		ids, ok := ix.features[code]
		if !ok {
			if ix.anchor(code) {
				return nil, false // a label no data graph has
			}
			continue // mined away: no pruning from this feature
		}
		cand = intersectSorted(cand, ids)
		if len(cand) == 0 {
			return nil, false
		}
	}
	return toInts(cand), false
}

// MemoryFootprint implements Index.
func (ix *Mined) MemoryFootprint() int64 {
	var b int64
	for code, ids := range ix.features {
		b += int64(len(code)) + 48 + int64(len(ids))*4
	}
	return b
}
