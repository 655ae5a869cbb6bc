package domain

// Representation-switch heuristics. Both representations of a domain row
// are maintained by the matching layer — the sorted candidate slice and
// the bit row — and each word-level operation picks the cheaper side:
//
//   - Enumeration intersection: merging two sorted lists costs
//     O(|Φ(u)| + |nbrs|) (with galloping when the sizes are lopsided,
//     O(min·log max)); probing the bit row costs one O(1) test per
//     neighbor, O(|nbrs|), independent of |Φ(u)|. Probing therefore wins
//     except when the candidate set is far smaller than the neighbor
//     list, where galloping skips most of nbrs.
//
//   - Top-down candidate generation (CFL): the chain path touches one
//     hash/epoch slot per (neighbor-candidate, adjacency) pair; the bits
//     path pays a fixed O(|V(G)|/64) words per AND regardless of how few
//     bits are set. Bits win once the candidate rows hold at least on the
//     order of one set bit per word.
//
//   - Whole graph: up to WordVertices data vertices every set over V(G)
//     is one machine word, and up to as many query vertices so is a
//     conflict set over order positions. Filter and enumeration then run
//     on words (UseWords) and nothing is left to switch per operation.
//
// The constants below are calibrated by the crossover benchmarks in
// switch_bench_test.go (BenchmarkIntersectProbeVsMerge,
// BenchmarkGenerateBitsVsChain) — run them on the target hardware before
// adjusting.

// probeMinRatioNum/Den: probe when |Φ(u)|·Num ≥ |nbrs|·Den, i.e. the
// candidate set is at least 1/8 of the neighbor list. Below that, the
// galloping merge's O(|Φ|·log|nbrs|) beats the probe's O(|nbrs|).
// Measured (BenchmarkIntersectProbeVsMerge, |nbrs|=256, universe 64Ki):
// merge wins at |Φ|=16 (250ns vs 445ns), probe wins at |Φ|=64 (414ns vs
// 716ns) and by 6.5× at |Φ|=4096 — crossover near |Φ|/|nbrs| = 1/8.
const (
	probeMinRatioNum = 8
	probeMinRatioDen = 1
)

// bitsGenerateNumPerWord: use the bit-matrix generation path when the
// scatter volume amounts to at least one set bit per eight words of the
// universe (density ≥ 1/512). Sparser than that, the fixed O(words) AND
// and extraction cost dominates and the epoch-chain scatter path is
// cheaper. Measured (BenchmarkGenerateBitsVsChain, universe 64Ki = 1024
// words): chain wins at 64 scattered bits (2.2µs vs 4.1µs), bits win at
// 256 (5.1µs vs 9.6µs) and by 58× at 16384 — crossover near words/8 =
// 128 bits.
const bitsGenerateNumPerWord = 8

// UseProbe reports whether the enumeration intersection of a candidate
// set of size candCount with nbrCount label-restricted neighbors should
// probe the domain bit row per neighbor instead of merging sorted slices.
func UseProbe(candCount, nbrCount int) bool {
	return candCount*probeMinRatioNum >= nbrCount*probeMinRatioDen
}

// UseBitsGenerate reports whether top-down candidate generation for a
// query vertex should run on bit rows rather than the epoch-chain
// scatter path, given a universe of nData data vertices. scatterVol is
// the caller's estimate of how many bits the generation will scatter —
// the processed neighbors' total candidate count is the cheap lower
// bound the CFL filter uses. Keying the switch on the global label
// frequency instead is wrong on large graphs: a huge universe makes the
// fixed O(words) AND/extract scans expensive precisely when tiny
// candidate sets make the chain path nearly free.
func UseBitsGenerate(scatterVol, nData int) bool {
	words := (nData + 63) / 64
	return scatterVol*bitsGenerateNumPerWord >= words
}

// WordVertices is the largest vertex count one machine word covers;
// graph.Builder keeps a neighbourhood word per vertex up to this size.
const WordVertices = 64

// UseWords reports whether a query of nQuery vertices against a data graph
// of nData vertices runs on the word-parallel kernels. Not a tuning knob:
// up to the cut-off a word operation replaces a loop over a list and is
// never slower, past it the sets do not fit (and a query wider than the
// graph cannot match it anyway).
func UseWords(nQuery, nData int) bool {
	return nQuery <= WordVertices && nData <= WordVertices
}
