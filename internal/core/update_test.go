package core

import (
	"errors"
	"math/rand"
	"testing"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
)

// TestAppendGraphEqualsRebuild: for every Updatable configuration that
// accepts appends, AppendGraph-then-query equals rebuild-then-query (and
// the scan), and the appended-to index reports the size of the rebuilt one
// — for both configurations of the path trie the same nodes and entries.
// The queries are drawn from the appended graphs, so every answer set
// contains a graph the original Build never saw.
func TestAppendGraphEqualsRebuild(t *testing.T) {
	full := genDB(t, 20, 3)
	const base = 12
	copyDB := func(n int) *graph.Database {
		db := graph.NewDatabase(nil)
		for i := 0; i < n; i++ {
			db.Append(full.Graph(i))
		}
		return db
	}
	appended := graph.NewDatabase(nil)
	for i := base; i < full.Len(); i++ {
		appended.Append(full.Graph(i))
	}
	queries := genQueries(t, appended, 30)
	oracle := builtScan(t, full)

	rebuilt := allEngines()
	for name, e := range allEngines() {
		if name == "gIndex" || name == "TreePi" || name == "FG-Index" {
			continue // mining-based: refuse incremental appends (TestUpdatableCoverage)
		}
		if err := e.Build(copyDB(base), BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		for i := base; i < full.Len(); i++ {
			gid, err := e.(Updatable).AppendGraph(full.Graph(i))
			if err != nil || gid != i {
				t.Fatalf("%s: AppendGraph = %d, %v; want %d", name, gid, err, i)
			}
		}
		if err := rebuilt[name].Build(copyDB(full.Len()), BuildOptions{}); err != nil {
			t.Fatalf("%s rebuild: %v", name, err)
		}
		if got, want := e.IndexMemory(), rebuilt[name].IndexMemory(); got != want {
			t.Errorf("%s: IndexMemory %d after appends, %d after rebuild", name, got, want)
		}
		for qi, q := range queries {
			want := oracle.Query(q, QueryOptions{}).Answers
			if len(want) == 0 || want[len(want)-1] < base {
				t.Fatalf("q%d: scan answers %v hold no appended graph", qi, want)
			}
			if got := e.Query(q, QueryOptions{}).Answers; !equalInts(got, want) {
				t.Errorf("%s q%d after appends: answers %v, want %v", name, qi, got, want)
			}
			if got := rebuilt[name].Query(q, QueryOptions{}).Answers; !equalInts(got, want) {
				t.Errorf("%s q%d after rebuild: answers %v, want %v", name, qi, got, want)
			}
		}
	}
}

// refusingIndex lets every graph through and refuses every append, the way
// CT-Index does when a graph's fingerprint cannot be computed.
type refusingIndex struct{ graphs int }

var errRefused = errors.New("refused")

func (*refusingIndex) Name() string { return "refusing" }
func (ix *refusingIndex) Build(db *graph.Database, _ index.BuildOptions) error {
	ix.graphs = db.Len()
	return nil
}
func (ix *refusingIndex) Filter(*graph.Graph) []int {
	ids := make([]int, ix.graphs)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
func (*refusingIndex) MemoryFootprint() int64              { return 0 }
func (*refusingIndex) InsertGraph(*graph.Graph, int) error { return errRefused }

// TestAppendGraphRefusedLeavesEngineUntouched: when the index refuses a
// graph the database does not take it either — it would hold an id no probe
// returns, and containing queries would silently lose an answer.
func TestAppendGraphRefusedLeavesEngineUntouched(t *testing.T) {
	db := genDB(t, 6, 3)
	e := &engine{name: "refusing", idx: &refusingIndex{}, test: vf2First}
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := genQueries(t, db, 1)[0]
	before := e.Query(q, QueryOptions{}).Answers
	if gid, err := e.AppendGraph(db.Graph(0)); !errors.Is(err, errRefused) {
		t.Fatalf("AppendGraph = %d, %v; want the index's refusal", gid, err)
	}
	if db.Len() != 6 {
		t.Errorf("database has %d graphs after a refused append, want 6", db.Len())
	}
	if after := e.Query(q, QueryOptions{}).Answers; !equalInts(after, before) {
		t.Errorf("answers %v after a refused append, %v before", after, before)
	}
}

// TestUpdatableCoverage documents which engines support incremental
// appends: all index-free engines and the enumeration-based indexes; the
// mining-based gIndex must rebuild.
func TestUpdatableCoverage(t *testing.T) {
	updatable := map[string]bool{
		"CFL": true, "GraphQL": true, "CFQL": true, "CFQL-parallel": true,
		"TurboIso": true, "Scan-VF2": true,
		"Grapes": true, "GGSX": true, "CT-Index": true, "GraphGrep": true,
		"vcGrapes": true, "vcGGSX": true, "CFQL+cache": true,
		// Mining-based: implement the interface but refuse at runtime.
		"gIndex": true, "TreePi": true, "FG-Index": true,
	}
	r := rand.New(rand.NewSource(113))
	db := randomDB(r, 5, 6, 2)
	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		u, ok := e.(Updatable)
		if ok != updatable[name] {
			t.Errorf("%s: Updatable = %v, want %v", name, ok, updatable[name])
			continue
		}
		if !ok {
			continue
		}
		g := randomConnected(r, 5, 3, 2)
		_, err := u.AppendGraph(g)
		if name == "gIndex" || name == "TreePi" || name == "FG-Index" {
			if err == nil {
				t.Errorf("%s should refuse incremental appends", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: AppendGraph failed: %v", name, err)
		}
	}
}
