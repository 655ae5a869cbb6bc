// This file's base name (words.go) is on the hotalloc analyzer's hot-file
// list: the word-parallel kernels run once per data graph and once per
// search node, so their loops are held to the zero-allocation rule too.
package matching

// wordLoops plants the allocation a word kernel must not make — a fresh
// per-vertex word array — next to the arena form.
func wordLoops(order []int, phi []uint64) uint64 {
	var all uint64
	for range order {
		words := make([]uint64, len(order)) // want: make in a hot loop
		_ = words
	}
	for _, u := range order {
		all |= phi[u] // words off the arena: ok
	}
	return all
}
