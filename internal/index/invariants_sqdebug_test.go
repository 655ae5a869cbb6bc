//go:build sqdebug

package index

import (
	"strings"
	"testing"

	"subgraphquery/internal/graph"
)

// Corruption tests for the sqdebug trie assertions, on both configurations
// of the path trie.

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

func debugDB(t *testing.T) *graph.Database {
	t.Helper()
	g0 := graph.MustFromEdges([]graph.Label{0, 1, 2}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	g1 := graph.MustFromEdges([]graph.Label{0, 1, 0}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	return graph.NewDatabase([]*graph.Graph{g0, g1})
}

func builtGrapes(t *testing.T) *PathTrie { return builtTrie(t, NewGrapes()) }

func builtGGSX(t *testing.T) *PathTrie { return builtTrie(t, &GGSX{}) }

func builtTrie(t *testing.T, ix *PathTrie) *PathTrie {
	t.Helper()
	if err := ix.Build(debugDB(t), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDebugCheckTrieAcceptsBuilt(t *testing.T) {
	debugCheckTrie(builtGrapes(t)) // Build already ran it; must still hold
	debugCheckTrie(builtGGSX(t))
}

func TestDebugCheckTrieUnsortedPostings(t *testing.T) {
	for _, ix := range []*PathTrie{builtGrapes(t), builtGGSX(t)} {
		ids := ix.nodes.at(findNodeWithPostings(t, ix, 2)).ids
		ids[0], ids[1] = ids[1], ids[0]
		mustPanicWith(t, "ascending", func() { debugCheckTrie(ix) })
	}
}

func TestDebugCheckTrieCounterDrift(t *testing.T) {
	grapes := builtGrapes(t)
	grapes.addNode(trieNode{}) // on no chain
	mustPanicWith(t, "chains reach", func() { debugCheckTrie(grapes) })
	ggsx := builtGGSX(t)
	ggsx.entries--
	mustPanicWith(t, "entries counter", func() { debugCheckTrie(ggsx) })
}

// TestDebugCheckTrieCountsMatchConfiguration: a counted trie has one count
// per id, a presence trie none at all.
func TestDebugCheckTrieCountsMatchConfiguration(t *testing.T) {
	grapes := builtGrapes(t)
	n := findNodeWithPostings(t, grapes, 1)
	counts := grapes.counts.at(n)
	*counts = (*counts)[:len(*counts)-1]
	mustPanicWith(t, "counts", func() { debugCheckTrie(grapes) })
	ggsx := builtGGSX(t)
	ggsx.counts = NewGrapes().counts
	for ggsx.counts.n < ggsx.nodes.n {
		ggsx.counts.push(nil)
	}
	mustPanicWith(t, "counts", func() { debugCheckTrie(ggsx) })
}

// TestDebugCheckTrieChains: a sibling chain out of label order (which is
// also what a repeated label or a cycle looks like), and a child that names
// another parent.
func TestDebugCheckTrieChains(t *testing.T) {
	for _, build := range []func(*testing.T) *PathTrie{builtGrapes, builtGGSX} {
		ix := build(t)
		first := ix.nodes.at(ix.nodes.at(0).child)
		second := ix.nodes.at(first.next)
		if first.next == 0 {
			t.Fatal("fixture's root has one child")
		}
		second.next = ix.nodes.at(0).child // a cycle: first → second → first
		mustPanicWith(t, "ascending label order", func() { debugCheckTrie(ix) })

		ix = build(t)
		first = ix.nodes.at(ix.nodes.at(0).child)
		first.label = ix.nodes.at(first.next).label
		mustPanicWith(t, "ascending label order", func() { debugCheckTrie(ix) })

		ix = build(t)
		first = ix.nodes.at(ix.nodes.at(0).child)
		first.parent = ix.nodes.at(0).child
		mustPanicWith(t, "names another parent", func() { debugCheckTrie(ix) })
	}
}

func findNodeWithPostings(t *testing.T, ix *PathTrie, min int) uint32 {
	t.Helper()
	for n := uint32(0); n < ix.nodes.n; n++ {
		if len(ix.nodes.at(n).ids) >= min {
			return n
		}
	}
	t.Fatalf("no node with %d postings in fixture", min)
	return 0
}
