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
		n := findNodeWithPostings(ix.root, 2)
		if n == nil {
			t.Fatal("no node with two postings in fixture")
		}
		n.graphIDs[0], n.graphIDs[1] = n.graphIDs[1], n.graphIDs[0]
		mustPanicWith(t, "ascending", func() { debugCheckTrie(ix) })
	}
}

func TestDebugCheckTrieCounterDrift(t *testing.T) {
	grapes := builtGrapes(t)
	grapes.nodes++
	mustPanicWith(t, "nodes counter", func() { debugCheckTrie(grapes) })
	ggsx := builtGGSX(t)
	ggsx.entries--
	mustPanicWith(t, "entries counter", func() { debugCheckTrie(ggsx) })
}

// TestDebugCheckTrieCountsMatchConfiguration: a counted trie has one count
// per id, a presence trie none at all.
func TestDebugCheckTrieCountsMatchConfiguration(t *testing.T) {
	grapes := builtGrapes(t)
	n := findNodeWithPostings(grapes.root, 1)
	n.counts = n.counts[:len(n.counts)-1]
	mustPanicWith(t, "counts", func() { debugCheckTrie(grapes) })
	ggsx := builtGGSX(t)
	n = findNodeWithPostings(ggsx.root, 1)
	n.counts = make([]int32, len(n.graphIDs))
	mustPanicWith(t, "counts", func() { debugCheckTrie(ggsx) })
}

func findNodeWithPostings(n *trieNode, min int) *trieNode {
	if len(n.graphIDs) >= min {
		return n
	}
	for _, c := range n.children {
		if found := findNodeWithPostings(c, min); found != nil {
			return found
		}
	}
	return nil
}
