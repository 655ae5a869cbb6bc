package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveIntersect is the obviously-correct reference: a map-based
// intersection of two duplicate-free lists, sorted afterwards.
func naiveIntersect(a, b []int32) []int32 {
	in := map[int32]bool{}
	for _, x := range a {
		in[x] = true
	}
	var out []int32
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// sortedUniqueSample draws n distinct values from [0, universe) in
// ascending order.
func sortedUniqueSample(rng *rand.Rand, n, universe int) []int32 {
	seen := map[int32]bool{}
	for len(seen) < n {
		seen[int32(rng.Intn(universe))] = true
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestIntersectSortedProperty cross-checks the kernel against the naive
// reference over many random shapes, including the size skews that flip it
// between the merge scan and the galloping path.
func TestIntersectSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(4000)
		la := rng.Intn(min(universe, 80))
		lb := rng.Intn(universe)
		if trial%3 == 0 {
			// Force heavy skew so the galloping branch is exercised even
			// when the random sizes land close together.
			la = rng.Intn(4)
			lb = universe / 2
		}
		a := sortedUniqueSample(rng, la, universe)
		b := sortedUniqueSample(rng, lb, universe)
		want := naiveIntersect(a, b)
		got := IntersectSorted(nil, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: IntersectSorted(|a|=%d,|b|=%d) = %v, want %v", trial, la, lb, got, want)
		}
		// Symmetry: the kernel swaps internally; both orders must agree.
		if swapped := IntersectSorted(nil, b, a); !slices.Equal(swapped, want) {
			t.Fatalf("trial %d: intersection not symmetric", trial)
		}
		// In-place form: dst aliasing a's backing must give the same
		// result without allocating when the result fits.
		inPlace := IntersectSorted(slices.Clone(a)[:0], a, b)
		if !slices.Equal(inPlace, want) {
			t.Fatalf("trial %d: in-place intersection diverged", trial)
		}
	}
}

// TestIntersectSortedEdgeCases pins the degenerate shapes.
func TestIntersectSortedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		a, b []int32
		want []int32
	}{
		{"both empty", nil, nil, nil},
		{"a empty", nil, []int32{1, 2, 3}, nil},
		{"b empty", []int32{1, 2, 3}, nil, nil},
		{"disjoint", []int32{1, 3, 5}, []int32{2, 4, 6}, nil},
		{"identical", []int32{2, 4, 6}, []int32{2, 4, 6}, []int32{2, 4, 6}},
		{"subset", []int32{4}, []int32{1, 2, 4, 8}, []int32{4}},
		{"ends only", []int32{0, 99}, []int32{0, 50, 99}, []int32{0, 99}},
	}
	for _, tc := range cases {
		got := IntersectSorted(nil, tc.a, tc.b)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIntersectSortedSkewed runs the 1:1000 shape the gallop threshold is
// for and checks dst reuse keeps the call allocation-free.
func TestIntersectSortedSkewed(t *testing.T) {
	big := make([]int32, 1000)
	for i := range big {
		big[i] = int32(i * 3)
	}
	small := []int32{0, 1500, 2997} // first, middle, last of big; 1500 = 500*3
	want := []int32{0, 1500, 2997}
	if got := IntersectSorted(nil, small, big); !slices.Equal(got, want) {
		t.Fatalf("skewed intersection = %v, want %v", got, want)
	}
	dst := make([]int32, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		dst = IntersectSorted(dst[:0], small, big)
	})
	if allocs != 0 {
		t.Fatalf("skewed intersection with reused dst allocated %v times per run, want 0", allocs)
	}
}

// TestLowerBound checks the galloping search against the linear scan.
func TestLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := sortedUniqueSample(rng, rng.Intn(100), 500)
		from := 0
		if len(s) > 0 {
			from = rng.Intn(len(s) + 1)
		}
		target := int32(rng.Intn(520) - 10)
		got := LowerBound(s, from, target)
		want := from
		for want < len(s) && s[want] < target {
			want++
		}
		if got != want {
			t.Fatalf("LowerBound(%v, %d, %d) = %d, want %d", s, from, target, got, want)
		}
	}
}

// Benchmarks: the merge and gallop regimes of the kernel. Run with
// `go test ./internal/graph -bench IntersectSorted -benchmem`; the served-path
// benchmark (go run ./benchmark) watches the end-to-end numbers, these locate
// kernel-level regressions.
func benchLists(n, m, stride int) (a, b []int32) {
	b = make([]int32, m)
	for i := range b {
		b[i] = int32(i)
	}
	a = make([]int32, n)
	for i := range a {
		a[i] = int32(i * stride % m)
	}
	slices.Sort(a)
	a = slices.Compact(a)
	return a, b
}

func BenchmarkIntersectSortedBalanced(bm *testing.B) {
	a, b := benchLists(1024, 2048, 2)
	dst := make([]int32, 0, len(a))
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		dst = IntersectSorted(dst[:0], a, b)
	}
}

func BenchmarkIntersectSortedSkewed(bm *testing.B) {
	a, b := benchLists(16, 1<<16, 4099)
	dst := make([]int32, 0, len(a))
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		dst = IntersectSorted(dst[:0], a, b)
	}
}
