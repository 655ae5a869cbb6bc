// Package scratch provides reusable, grow-only scratch memory for the
// query hot paths: epoch-stamped bitsets whose clear is O(1), grow-only
// buffers that retain capacity across uses, and reusable row storage for
// per-position adjacency lists.
//
// The paper's Algorithm 2 runs its loop body once per data graph per
// query; naive implementations re-allocate candidate structures and
// filter scratch on every iteration, which makes the allocator — not the
// matching algorithm — the dominant constant factor (see DESIGN.md,
// "Scratch arenas"). The types here let one worker reuse a single
// allocation footprint, sized by the largest graph it has seen, across an
// entire query (and across queries, via pooling in internal/matching).
//
// None of the types are safe for concurrent use: a scratch value belongs
// to exactly one worker at a time.
package scratch

import "math/bits"

// Bits is an epoch-stamped bitset over a dense integer universe [0, n).
// Clearing is O(1): Reset bumps the epoch, and every word carries the
// epoch at which it was last written, so words from earlier epochs read
// as zero. This is what makes a per-worker candidate structure reusable
// across data graphs without an O(|V(G)|) memset per graph.
type Bits struct {
	words []uint64 // bit words, valid only where epoch[w] == cur
	epoch []uint32 // epoch at which words[w] was last written
	cur   uint32   // current epoch; always >= 1
}

// Reset clears the set and sizes it for n slots, reusing capacity. The
// clear is O(1) except after capacity growth or epoch wrap-around.
func (b *Bits) Reset(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
		b.epoch = make([]uint32, nw)
		b.cur = 1
		return
	}
	b.words = b.words[:nw]
	b.epoch = b.epoch[:nw]
	if b.cur == ^uint32(0) {
		// Epoch wrap (once per 2^32 resets): stale stamps could collide
		// with the restarted counter, so pay one full clear.
		clear(b.epoch[:cap(b.epoch)])
		b.cur = 1
		return
	}
	b.cur++
}

// Set adds slot i.
func (b *Bits) Set(i uint32) {
	w := i >> 6
	if b.epoch[w] != b.cur {
		b.words[w] = 0
		b.epoch[w] = b.cur
	}
	b.words[w] |= 1 << (i & 63)
}

// Get reports whether slot i is in the set.
func (b *Bits) Get(i uint32) bool {
	w := i >> 6
	return b.epoch[w] == b.cur && b.words[w]&(1<<(i&63)) != 0
}

// Clear removes slot i.
func (b *Bits) Clear(i uint32) {
	w := i >> 6
	if b.epoch[w] == b.cur {
		b.words[w] &^= 1 << (i & 63)
	}
}

// Word returns the i-th 64-slot word of the set; words beyond the set's
// length read as zero.
func (b *Bits) Word(i int) uint64 {
	if i >= len(b.words) || b.epoch[i] != b.cur {
		return 0
	}
	return b.words[i]
}

// SetWord replaces the i-th 64-slot word of the set.
func (b *Bits) SetWord(i int, w uint64) {
	b.words[i] = w
	b.epoch[i] = b.cur
}

// Len returns the number of slots the set currently addresses (rounded up
// to whole words).
func (b *Bits) Len() int { return len(b.words) * 64 }

// Count returns the number of set slots (population count over the words
// written in the current epoch).
func (b *Bits) Count() int {
	n := 0
	for w, word := range b.words {
		if b.epoch[w] == b.cur {
			n += bits.OnesCount64(word)
		}
	}
	return n
}

// The bulk word operations below are the refine/intersect kernels of the
// bit-matrix compatibility domains (internal/domain): one 64-bit word of
// work covers 64 data vertices, which is what makes the dense candidate
// representation beat sorted-slice merging once sets get large. All of
// them honor the epoch scheme — a word whose stamp is stale reads as zero,
// exactly as Get would report it.

// And intersects b with other in place (b ∩= other). Slots beyond other's
// length are treated as absent from other, so they are cleared from b.
func (b *Bits) And(other *Bits) {
	for w := range b.words {
		if b.epoch[w] != b.cur {
			continue // stale: already logically zero
		}
		var ow uint64
		if w < len(other.words) && other.epoch[w] == other.cur {
			ow = other.words[w]
		}
		b.words[w] &= ow
	}
}

// AndNot subtracts other from b in place (b = b \ other).
func (b *Bits) AndNot(other *Bits) {
	n := min(len(b.words), len(other.words))
	for w := 0; w < n; w++ {
		if b.epoch[w] != b.cur || other.epoch[w] != other.cur {
			continue
		}
		b.words[w] &^= other.words[w]
	}
}

// Or unions other into b in place (b ∪= other). Slots of other beyond b's
// length are dropped: callers size b for the shared universe first.
func (b *Bits) Or(other *Bits) {
	n := min(len(b.words), len(other.words))
	for w := 0; w < n; w++ {
		if other.epoch[w] != other.cur || other.words[w] == 0 {
			continue
		}
		if b.epoch[w] != b.cur {
			b.words[w] = 0
			b.epoch[w] = b.cur
		}
		b.words[w] |= other.words[w]
	}
}

// CopyFrom makes b a copy of other's set content, reshaped to other's
// length. The copy touches only other's live words; the rest of b clears
// by epoch.
func (b *Bits) CopyFrom(other *Bits) {
	b.Reset(other.Len())
	for w := range other.words {
		if other.epoch[w] == other.cur && other.words[w] != 0 {
			b.words[w] = other.words[w]
			b.epoch[w] = b.cur
		}
	}
}

// IterateSet visits every set slot in ascending order, stopping early when
// fn returns false. This is the extraction kernel that reads a refined
// domain row back out as a sorted candidate list — ascending by
// construction, so no sort is needed afterwards.
func (b *Bits) IterateSet(fn func(i uint32) bool) {
	for w, word := range b.words {
		if b.epoch[w] != b.cur || word == 0 {
			continue
		}
		base := uint32(w) << 6
		for word != 0 {
			if !fn(base + uint32(bits.TrailingZeros64(word))) {
				return
			}
			word &= word - 1 // clear lowest set bit
		}
	}
}

// MaxSet returns the highest set slot, or false when the set is empty —
// the "most recent conflicting position" lookup of jump-redo backtracking.
func (b *Bits) MaxSet() (uint32, bool) {
	for w := len(b.words) - 1; w >= 0; w-- {
		if b.epoch[w] == b.cur && b.words[w] != 0 {
			return uint32(w)<<6 + uint32(63-bits.LeadingZeros64(b.words[w])), true
		}
	}
	return 0, false
}

// LiveBytes returns the bytes addressed by the current length: the
// honest live cost of one bitset (words plus their epoch stamps).
func (b *Bits) LiveBytes() int64 { return int64(len(b.words))*8 + int64(len(b.epoch))*4 }

// ReservedBytes returns the bytes held by the backing arrays regardless
// of current length — what the arena actually pins in memory.
func (b *Bits) ReservedBytes() int64 { return int64(cap(b.words))*8 + int64(cap(b.epoch))*4 }

// Grow returns buf with length n, reusing capacity when possible. The
// contents of the returned slice are unspecified: callers that need zeroed
// memory must clear it (or, like the epoch-based CFL scratch, tolerate
// stale values by construction).
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	// Round up to the next power of two so repeated growth over a graph
	// database amortizes to O(1) allocations per worker.
	c := 1
	for c < n {
		c <<= 1
	}
	return make([]T, n, c)
}

// Rows is reusable storage for a slice of rows, each of which retains its
// capacity across uses — the backing store for per-position adjacency
// lists (backward neighbors, bipartite rows) that would otherwise be
// re-allocated per candidate.
type Rows[T any] struct {
	rows [][]T
}

// Take returns n rows, each of length zero with retained capacity. The
// returned slice shares storage with the Rows value: appends through the
// returned rows grow the retained capacities.
func (r *Rows[T]) Take(n int) [][]T {
	if cap(r.rows) < n {
		grown := make([][]T, n)
		copy(grown, r.rows[:cap(r.rows)])
		r.rows = grown
	} else {
		r.rows = r.rows[:n]
	}
	for i := range r.rows {
		r.rows[i] = r.rows[i][:0]
	}
	return r.rows
}

// ReservedBytes returns the bytes pinned by the row capacities, given the
// byte size of one element.
func (r *Rows[T]) ReservedBytes(elemBytes int64) int64 {
	rows := r.rows[:cap(r.rows)]
	var b int64
	for _, row := range rows {
		b += int64(cap(row)) * elemBytes
	}
	return b
}
