package index

import (
	"math/rand"
	"testing"
)

// appenders lists the indexes supporting incremental insertion.
func appenders() map[string]Index {
	out := map[string]Index{}
	for _, mk := range Catalogue {
		ix := mk()
		if _, ok := ix.(Appender); ok {
			out[ix.Name()] = ix
		}
	}
	return out
}

// TestInsertGraphMatchesRebuild: appending graphs one by one must yield the
// same filtering behaviour as building over the full database.
func TestInsertGraphMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	full := randomDB(r, 12, 8, 2)
	half := 6

	for name, incremental := range appenders() {
		// Build over the first half, then append the rest.
		firstHalf := randomDB(r, 0, 8, 2)
		for i := 0; i < half; i++ {
			firstHalf.Append(full.Graph(i))
		}
		if err := incremental.Build(firstHalf, BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		app, ok := incremental.(Appender)
		if !ok {
			t.Fatalf("%s should implement Appender", name)
		}
		for i := half; i < full.Len(); i++ {
			if err := app.InsertGraph(full.Graph(i), i); err != nil {
				t.Fatalf("%s insert %d: %v", name, i, err)
			}
		}

		fresh := appenders()[name]
		if err := fresh.Build(full, BuildOptions{}); err != nil {
			t.Fatalf("%s rebuild: %v", name, err)
		}

		// Either configuration of the path trie ends up the very tree a
		// rebuild gives, counts included — also when it grows from empty
		// by InsertGraph alone.
		if a, ok := incremental.(*PathTrie); ok {
			b := fresh.(*PathTrie)
			grown := &PathTrie{counted: a.counted}
			for i := 0; i < full.Len(); i++ {
				if err := grown.InsertGraph(full.Graph(i), i); err != nil {
					t.Fatalf("%s insert %d into empty: %v", name, i, err)
				}
			}
			debugCheckTrie(grown)
			for what, a := range map[string]*PathTrie{"after appends": a, "grown from empty": grown} {
				if a.numGraphs != b.numGraphs || !sameTrie(a, b, true) {
					t.Errorf("%s: trie %s differs from the rebuilt one", name, what)
				}
			}
		}

		for k := 0; k < 10; k++ {
			q := walkQuery(r, full.Graph(r.Intn(full.Len())), 1+r.Intn(4))
			a := incremental.Filter(q)
			b := fresh.Filter(q)
			if len(a) != len(b) {
				t.Fatalf("%s: incremental filter %v != rebuilt %v", name, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: incremental filter %v != rebuilt %v", name, a, b)
				}
			}
		}
	}
}

// TestInsertGraphFromEmpty: appending into a never-built index works.
func TestInsertGraphFromEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	db := randomDB(r, 5, 7, 2)
	for name, ix := range appenders() {
		app := ix.(Appender)
		for i := 0; i < db.Len(); i++ {
			if err := app.InsertGraph(db.Graph(i), i); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		q := walkQuery(r, db.Graph(0), 2)
		ids := ix.Filter(q)
		found := false
		for _, id := range ids {
			if id == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: source graph missing from filter output %v", name, ids)
		}
	}
}
