// This file's base name (cache.go) is on the hotalloc analyzer's hot-file
// list: the result cache's exact-hit and probe loops run once per cached
// entry per query, so they are held to the zero-allocation rule.
package core

// arena stands in for matching.Scratch.
type arena struct {
	labels []int
}

// NewScratch trips the constructor rule when called inside a loop.
func NewScratch() *arena { return &arena{} }

type entry struct {
	labels  []int
	answers []int
}

// probeNaive is the probe loop as it once was: a fresh arena and fresh
// buffers for every cached entry.
func probeNaive(entries []*entry, labels []int) int {
	hits := 0
	for _, ent := range entries {
		s := NewScratch()                     // want: arena constructor in a hot loop
		seen := make([]bool, len(ent.labels)) // want: make in a hot loop
		mine := append([]int(nil), labels...) // want: append onto a fresh slice
		if len(mine) >= len(seen) && s != nil {
			hits++
		}
	}
	return hits
}

// probeArena is the compliant form: one arena for the whole probe, its
// buffers truncated per entry.
func probeArena(entries []*entry, labels []int, s *arena) int {
	hits := 0
	for _, ent := range entries {
		s.labels = append(s.labels[:0], labels...) // retained capacity: ok
		if len(s.labels) >= len(ent.labels) {
			hits++
		}
	}
	return hits
}
