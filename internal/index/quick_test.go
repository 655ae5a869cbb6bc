package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/graph"
)

// Property-based tests (testing/quick) on the index data structures.

// TestQuickTrieCountsMatchDirect: for any database, the Grapes trie must
// report exactly the per-graph occurrence counts that direct path counting
// produces.
func TestQuickTrieCountsMatchDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 3+r.Intn(5), 7, 1+r.Intn(3))
		ix := NewGrapes()
		if err := ix.Build(db, BuildOptions{}); err != nil {
			return false
		}
		for gid := 0; gid < db.Len(); gid++ {
			for key, c := range countPaths(db.Graph(gid), DefaultMaxPathLength) {
				p, ok := lookupRef(ix, keyLabels(key))
				at, found := slices.BinarySearch(p.ids, int32(gid))
				if !ok || !found || p.counts[at] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickSuffixClosure: every suffix of every GGSX-indexed path is itself
// reachable in the trie with the same graph id recorded — the suffix tree's
// defining property, which one insert per enumerated path already gives.
func TestQuickSuffixClosure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 2+r.Intn(4), 6, 1+r.Intn(3))
		var ix GGSX
		if err := ix.Build(db, BuildOptions{}); err != nil {
			return false
		}
		for gid := 0; gid < db.Len(); gid++ {
			closed := enumeratePaths(db.Graph(gid), DefaultMaxPathLength, func(labels []graph.Label) bool {
				for s := 0; s < len(labels); s++ {
					p, ok := lookupRef(&ix, labels[s:])
					if _, present := slices.BinarySearch(p.ids, int32(gid)); !ok || !present {
						return false
					}
				}
				return true
			})
			if !closed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickPresenceTrieIsCountedTrieWithoutCounts: on any database the two
// configurations of the path trie build the same tree — node for node, the
// same children and the same posting lists — and differ only in the counts.
func TestQuickPresenceTrieIsCountedTrieWithoutCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r, 2+r.Intn(8), 8, 1+r.Intn(4))
		var presence GGSX
		counted := NewGrapes()
		if presence.Build(db, BuildOptions{}) != nil || counted.Build(db, BuildOptions{Workers: 1 + r.Intn(3)}) != nil {
			return false
		}
		return sameTrie(&presence, counted, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickFingerprintSubset: if q is drawn from G, q's CT-Index
// fingerprint must be a bit-subset of G's.
func TestQuickFingerprintSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 6+r.Intn(8), r.Intn(8), 1+r.Intn(3))
		q := walkQuery(r, g, 1+r.Intn(4))
		var ix CTIndex
		if err := ix.Build(graph.NewDatabase([]*graph.Graph{g}), BuildOptions{}); err != nil {
			return false
		}
		var spent int64
		var check budget.Checkpoint
		fq, err := ix.fingerprint(q, &spent, &check, BuildOptions{})
		if err != nil {
			return false
		}
		fg := ix.fingerprints[0]
		for w := range fq {
			if fq[w]&^fg[w] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectSorted: intersectSorted agrees with a map-based
// reference on arbitrary sorted inputs.
func TestQuickIntersectSorted(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		a := dedupSorted(rawA)
		b := dedupSorted(rawB)
		ref := map[int32]bool{}
		for _, x := range b {
			ref[x] = true
		}
		var want []int32
		for _, x := range a {
			if ref[x] {
				want = append(want, x)
			}
		}
		got := intersectSorted(append([]int32(nil), a...), b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func dedupSorted(raw []uint8) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range raw {
		seen[int32(x)] = true
	}
	for x := int32(0); x < 256; x++ {
		if seen[x] {
			out = append(out, x)
		}
	}
	return out
}

// TestQuickRetainWithCount: retainWithCount keeps exactly the candidates
// whose posting-list count meets the threshold.
func TestQuickRetainWithCount(t *testing.T) {
	f := func(rawCand, rawIDs []uint8, rawCounts []uint8, need uint8) bool {
		cand := dedupSorted(rawCand)
		ids := dedupSorted(rawIDs)
		counts := make([]int32, len(ids))
		for i := range counts {
			if i < len(rawCounts) {
				counts[i] = int32(rawCounts[i])
			}
		}
		ref := map[int32]int32{}
		for i, id := range ids {
			ref[id] = counts[i]
		}
		var want []int32
		for _, c := range cand {
			if cnt, ok := ref[c]; ok && cnt >= int32(need) {
				want = append(want, c)
			}
		}
		got := retainWithCount(append([]int32(nil), cand...), ids, counts, int32(need))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
