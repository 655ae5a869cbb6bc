package index

import (
	"slices"

	"subgraphquery/internal/graph"
)

// NewGIndex returns a mining-based index in the spirit of gIndex (Yan, Yu
// and Han [37]), restricted to path features: a path is kept only if it is
//
//  1. frequent (size-1 features are always kept so filtering stays
//     complete), and
//  2. discriminative — its posting list is at least gIndexGamma times
//     smaller than the intersection of its maximal kept sub-features'
//     posting lists (it adds real pruning power).
func NewGIndex() *Mined {
	return &Mined{support: defaultSupportRatio, miner: miner{
		name: "gIndex",
		enumerate: func(g *graph.Graph, visit func(code string) bool) bool {
			return enumeratePaths(g, DefaultMaxPathLength, func(labels []graph.Label) bool {
				return visit(pathKey(labels))
			})
		},
		anchor: func(key string) bool { return len(key) == 4 },
		discriminative: func(ix *Mined, key string, ids []int32) bool {
			return float64(len(ix.subFeatureCandidates(key))) >= gIndexGamma*float64(len(ids))
		},
	}}
}

// gIndexGamma is gIndex's discriminative ratio γ: a feature is kept only if
// |candidates via sub-features| ≥ γ·|D_f|.
const gIndexGamma = 1.2

// subFeatureCandidates returns the candidate set achievable with the kept
// sub-features of a path: the intersection of the posting lists of its two
// maximal sub-paths (prefix and suffix, each trimmed to the longest kept).
func (ix *Mined) subFeatureCandidates(key string) []int32 {
	prefix := ix.lookupLongest(key[:len(key)-4], true)
	suffix := ix.lookupLongest(key[4:], false)
	switch {
	case prefix == nil && suffix == nil:
		return allGraphIDs(ix.numGraphs)
	case prefix == nil:
		return suffix
	case suffix == nil:
		return prefix
	}
	return intersectSorted(slices.Clone(prefix), suffix)
}

// lookupLongest finds the posting list of the longest kept sub-feature of
// key, trimming from the front or back.
func (ix *Mined) lookupLongest(key string, trimBack bool) []int32 {
	for len(key) > 0 {
		if ids, ok := ix.features[key]; ok {
			return ids
		}
		if trimBack {
			key = key[:len(key)-4]
		} else {
			key = key[4:]
		}
	}
	return nil
}
