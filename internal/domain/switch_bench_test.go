package domain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"subgraphquery/internal/domain"
	"subgraphquery/internal/graph"
)

// An external test package: internal/graph imports domain for the word
// cut-off, so the package's own tests cannot import graph.
//
// Crossover benchmarks calibrating the representation-switch constants in
// switch.go. Each benchmark pits the two implementations of one hot-path
// operation against each other across the size/density regimes the switch
// distinguishes; the constants are set where the curves cross.

// benchSets builds a sorted candidate set of candCount vertices, a sorted
// neighbor list of nbrCount vertices (both drawn from [0, universe)), and
// the matching domain row.
func benchSets(universe, candCount, nbrCount int) (cand, nbrs []graph.VertexID, m *domain.Matrix) {
	rng := rand.New(rand.NewSource(int64(universe + candCount + nbrCount)))
	pick := func(n int) []graph.VertexID {
		seen := map[int]bool{}
		out := make([]graph.VertexID, 0, n)
		for len(out) < n {
			v := rng.Intn(universe)
			if !seen[v] {
				seen[v] = true
				out = append(out, graph.VertexID(v))
			}
		}
		// Insertion sort is fine at benchmark-setup time.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j-1] > out[j]; j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
		return out
	}
	cand = pick(candCount)
	nbrs = pick(nbrCount)
	m = &domain.Matrix{}
	m.Reset(1, universe)
	for _, v := range cand {
		m.Add(0, uint32(v))
	}
	return cand, nbrs, m
}

// BenchmarkIntersectProbeVsMerge: enumeration intersection — probing the
// domain row per neighbor vs merging the sorted slices — across candidate
// set : neighbor list ratios. UseProbe's threshold sits at the crossover.
func BenchmarkIntersectProbeVsMerge(b *testing.B) {
	const universe = 1 << 16
	const nbrCount = 256
	for _, candCount := range []int{4, 16, 64, 256, 1024, 4096} {
		cand, nbrs, m := benchSets(universe, candCount, nbrCount)
		row := m.Row(0)
		out := make([]graph.VertexID, 0, nbrCount)
		b.Run(fmt.Sprintf("probe/cand=%d,nbrs=%d", candCount, nbrCount), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = out[:0]
				for _, v := range nbrs {
					if row.Get(uint32(v)) {
						out = append(out, v)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("merge/cand=%d,nbrs=%d", candCount, nbrCount), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = graph.IntersectSorted(out[:0], cand, nbrs)
			}
		})
	}
}

// BenchmarkGenerateBitsVsChain: top-down candidate generation — AND of
// two bit rows plus sorted extraction vs a scatter-and-collect pass over
// slice entries — across row densities. UseBitsGenerate's threshold sits
// at the crossover.
func BenchmarkGenerateBitsVsChain(b *testing.B) {
	const universe = 1 << 16
	for _, candCount := range []int{64, 256, 1024, 4096, 16384} {
		cand, other, m := benchSets(universe, candCount, candCount)
		var acc domain.Matrix
		acc.Reset(1, universe)
		var om domain.Matrix
		om.Reset(1, universe)
		for _, v := range other {
			om.Add(0, uint32(v))
		}
		out := make([]graph.VertexID, 0, candCount)
		mark := make(map[graph.VertexID]bool, candCount)
		b.Run(fmt.Sprintf("bits/cand=%d", candCount), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc.Row(0).CopyFrom(m.Row(0))
				acc.Row(0).And(om.Row(0))
				out = out[:0]
				acc.Row(0).IterateSet(func(v uint32) bool {
					out = append(out, graph.VertexID(v))
					return true
				})
			}
		})
		b.Run(fmt.Sprintf("chain/cand=%d", candCount), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(mark)
				for _, v := range other {
					mark[v] = true
				}
				out = out[:0]
				for _, v := range cand {
					if mark[v] {
						out = append(out, v)
					}
				}
			}
		})
	}
}
