package core

import (
	"math/rand"
	"sync"
	"testing"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

func stageNames(s obs.ExplainSnapshot) map[string]bool {
	out := map[string]bool{}
	for _, st := range s.Stages {
		out[st.Name] = true
	}
	return out
}

// TestExplainCFQLStages is the acceptance gate for the vcFV side of the
// EXPLAIN report: a CFQL query must record per-stage candidate counts for
// CFL's LDF, top-down and bottom-up passes, the engine name, and the chosen
// matching order with per-vertex selectivity.
func TestExplainCFQLStages(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 25, 8, 3)
	e := NewCFQL()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)

	ex := obs.NewExplain()
	res := e.Query(q, QueryOptions{Explain: ex})
	s := ex.Snapshot()

	if s.Engine != "CFQL" {
		t.Errorf("engine = %q, want CFQL", s.Engine)
	}
	names := stageNames(s)
	for _, want := range []string{obs.StageCFLLDF, obs.StageCFLTopDown, obs.StageCFLBottomUp} {
		if !names[want] {
			t.Errorf("stage %q missing (have %v)", want, names)
		}
	}
	// Every data graph passes through the label-pair prefilter; only the
	// survivors enter LDF, and only LDF survivors proceed further.
	if s.Prefilter == nil {
		t.Fatal("prefilter stats missing")
	}
	if s.Prefilter.Graphs != db.Len() {
		t.Errorf("prefilter saw %d graphs, want %d", s.Prefilter.Graphs, db.Len())
	}
	passed := s.Prefilter.Graphs - s.Prefilter.Pruned
	for _, st := range s.Stages {
		if st.Name == obs.StageCFLLDF && st.Graphs != passed {
			t.Errorf("ldf saw %d graphs, want %d prefilter survivors", st.Graphs, passed)
		}
		if len(st.SumPerVertex) != q.NumVertices() {
			t.Errorf("stage %s has %d vertex sums, want %d", st.Name, len(st.SumPerVertex), q.NumVertices())
		}
	}
	if res.Candidates > 0 {
		if s.OrdersSeen != res.Candidates {
			t.Errorf("orders seen = %d, want one per candidate (%d)", s.OrdersSeen, res.Candidates)
		}
		if len(s.Order) != q.NumVertices() {
			t.Errorf("order has %d steps, want %d", len(s.Order), q.NumVertices())
		}
	}
}

// TestExplainGraphQLStages: the GraphQL filter reports its profile and
// refinement stages, the refinement-round distribution, and semi-perfect
// matching rejections.
func TestExplainGraphQLStages(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	db := randomDB(r, 25, 8, 3)
	e := NewGraphQL()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(1), 3)

	ex := obs.NewExplain()
	e.Query(q, QueryOptions{Explain: ex})
	s := ex.Snapshot()

	if s.Engine != "GraphQL" {
		t.Errorf("engine = %q, want GraphQL", s.Engine)
	}
	names := stageNames(s)
	if !names[obs.StageGraphQLProfile] {
		t.Errorf("profile stage missing (have %v)", names)
	}
	// Refinement only runs on graphs surviving profile generation; when any
	// did, rounds must have been recorded.
	if names[obs.StageGraphQLRefine] {
		if s.RefineRounds == nil || s.RefineRounds.Graphs == 0 {
			t.Errorf("refine stage present but no rounds recorded: %+v", s.RefineRounds)
		}
	}
}

// TestExplainIndexProbes: IFV engines report one probe per query with the
// index's internals, and survivors match the Result's candidate count.
func TestExplainIndexProbes(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	db := randomDB(r, 25, 8, 3)
	q := walkQuery(r, db.Graph(2), 3)

	for name, e := range map[string]Engine{
		"Grapes":   NewGrapes(),
		"GGSX":     NewGGSX(),
		"CT-Index": NewCTIndex(),
	} {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ex := obs.NewExplain()
		res := e.Query(q, QueryOptions{Explain: ex})
		s := ex.Snapshot()
		if s.Engine != name {
			t.Errorf("%s: engine = %q", name, s.Engine)
		}
		if len(s.IndexProbes) != 1 {
			t.Fatalf("%s: %d probes, want 1", name, len(s.IndexProbes))
		}
		p := s.IndexProbes[0]
		if p.Index != name {
			t.Errorf("%s: probe index = %q", name, p.Index)
		}
		if p.Survivors != res.Candidates {
			t.Errorf("%s: survivors = %d, want %d candidates", name, p.Survivors, res.Candidates)
		}
		if p.Features == 0 {
			t.Errorf("%s: probe reports zero features", name)
		}
		if name == "CT-Index" && p.FingerprintBits == 0 {
			t.Errorf("CT-Index: fingerprint bits not reported")
		}
		if name != "CT-Index" && p.NodesVisited == 0 && res.Candidates > 0 {
			t.Errorf("%s: no trie nodes visited despite survivors", name)
		}
	}
}

// TestExplainIvcFVBothLevels: the two-level engine reports the index probe
// AND the CFL stages of the second filtering level.
func TestExplainIvcFVBothLevels(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	db := randomDB(r, 25, 8, 3)
	e := NewVcGrapes()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(3), 3)

	ex := obs.NewExplain()
	e.Query(q, QueryOptions{Explain: ex, Workers: 2})
	s := ex.Snapshot()
	if s.Engine != "vcGrapes" {
		t.Errorf("engine = %q", s.Engine)
	}
	if len(s.IndexProbes) != 1 || s.IndexProbes[0].Index != "Grapes" {
		t.Fatalf("index probe missing or wrong: %+v", s.IndexProbes)
	}
	survivors := s.IndexProbes[0].Survivors
	names := stageNames(s)
	if survivors > 0 && !names[obs.StageCFLLDF] {
		t.Errorf("CFL stages missing despite %d index survivors (have %v)", survivors, names)
	}
	for _, st := range s.Stages {
		if st.Graphs != survivors {
			t.Errorf("stage %s saw %d graphs, want the %d index survivors", st.Name, st.Graphs, survivors)
		}
	}
}

// TestExplainCachedEngine: a cache hit reports the answer pool as a
// "result-cache" probe and the outermost engine name wins.
func TestExplainCachedEngine(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	db := randomDB(r, 20, 8, 3)
	e := NewCached(NewCFQL(), 8)
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)

	ex1 := obs.NewExplain()
	e.Query(q, QueryOptions{Explain: ex1})
	if got := ex1.Snapshot().Engine; got != "CFQL+cache" {
		t.Errorf("miss path engine = %q, want CFQL+cache", got)
	}

	ex2 := obs.NewExplain()
	res := e.Query(q, QueryOptions{Explain: ex2})
	s := ex2.Snapshot()
	if s.Engine != "CFQL+cache" {
		t.Errorf("hit path engine = %q, want CFQL+cache", s.Engine)
	}
	if len(s.IndexProbes) != 1 || s.IndexProbes[0].Index != "result-cache" {
		t.Fatalf("cache-hit probe missing: %+v", s.IndexProbes)
	}
	if s.IndexProbes[0].Survivors != res.Candidates {
		t.Errorf("cache probe survivors = %d, want %d", s.IndexProbes[0].Survivors, res.Candidates)
	}
}

// TestExplainDoesNotChangeResults: attaching an Explain must not alter any
// engine's answers or candidate counts.
func TestExplainDoesNotChangeResults(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	db := randomDB(r, 20, 8, 3)
	q := walkQuery(r, db.Graph(4), 3)
	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain := e.Query(q, QueryOptions{Workers: 2})
		ex := obs.NewExplain()
		with := e.Query(q, QueryOptions{Workers: 2, Explain: ex})
		if len(plain.Answers) != len(with.Answers) || plain.Candidates != with.Candidates {
			t.Errorf("%s: explain changed results: %d/%d answers, %d/%d candidates",
				name, len(plain.Answers), len(with.Answers), plain.Candidates, with.Candidates)
		}
	}
}

// TestExplainConcurrentEngineRecording exercises shared Trace+Explain
// recording from parallel workers — Grapes' verification pool and the
// parallel CFQL engine — under the race detector (scripts/check.sh runs
// this package with -race).
func TestExplainConcurrentEngineRecording(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	db := randomDB(r, 40, 9, 3)
	queries := make([]*queryCase, 0, 4)
	for i := 0; i < 4; i++ {
		queries = append(queries, &queryCase{q: walkQuery(r, db.Graph(r.Intn(db.Len())), 3)})
	}

	for name, e := range map[string]Engine{
		"Grapes":        NewGrapes(),
		"CFQL-parallel": NewParallelCFQL(4),
		"vcGrapes":      NewVcGrapes(),
	} {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// One shared Explain+Trace across concurrently running queries, each
		// itself fanning out to 4 workers: the worst-case contention shape.
		ex := obs.NewExplain()
		tr := obs.NewTrace()
		var wg sync.WaitGroup
		for _, qc := range queries {
			wg.Add(1)
			go func(qc *queryCase) {
				defer wg.Done()
				qc.res = e.Query(qc.q, QueryOptions{Workers: 4, Observer: tr, Explain: ex})
			}(qc)
		}
		wg.Wait()
		s := ex.Snapshot()
		if s.Engine == "" {
			t.Errorf("%s: engine never recorded", name)
		}
		var candidates int
		for _, qc := range queries {
			candidates += qc.res.Candidates
		}
		events, dropped := tr.Verifications()
		if total := len(events) + dropped; total < candidates {
			t.Errorf("%s: %d verification events < %d candidates", name, total, candidates)
		}
	}
}

type queryCase struct {
	q   *graph.Graph
	res *Result
}
