package core

import (
	"math/rand"
	"slices"
	"testing"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// TestObserverEmissions runs every engine with a Trace attached and checks
// the per-SI-test stream and the Result's trace view against the Result:
// one verification event per SI test, answers among the found events, the
// phase spans equal to FilterTime and VerifyTime, the effective pool size
// in Workers, and the fingerprint.
func TestObserverEmissions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 30, 8, 3)
	queries := make([]*graph.Graph, 0, 4)
	for i := 0; i < 4; i++ {
		queries = append(queries, walkQuery(r, db.Graph(r.Intn(db.Len())), 3))
	}

	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		for qi, q := range queries {
			tr := obs.NewTrace()
			res := e.Query(q, QueryOptions{Observer: tr, Workers: 3})
			if res.TimedOut {
				continue
			}
			events, _ := tr.Verifications()
			found := map[int]bool{}
			for _, ev := range events {
				if ev.Found {
					found[ev.Graph] = true
				}
			}

			// One verification event per SI test. Most engines test each
			// candidate exactly once; the cached engine may skip candidates
			// confirmed by a cached supergraph, and FG-Index answers exact
			// queries straight from the index with no verification at all.
			if len(events) > res.Candidates {
				t.Errorf("%s q%d: %d verify events > %d candidates", name, qi, len(events), res.Candidates)
			}
			skipsVerification := name == "CFQL+cache" || name == "FG-Index"
			if !skipsVerification && len(events) != res.Candidates {
				t.Errorf("%s q%d: %d verify events, want %d candidates", name, qi, len(events), res.Candidates)
			}
			if len(found) > len(res.Answers) {
				t.Errorf("%s q%d: %d found events > %d answers", name, qi, len(found), len(res.Answers))
			}
			for _, id := range res.Answers {
				if len(events) == res.Candidates && !found[id] {
					t.Errorf("%s q%d: answer %d has no found verification event", name, qi, id)
				}
			}

			// The trace view is the Result's own numbers: exactly one span
			// per phase, equal to FilterTime and VerifyTime.
			s := res.TraceSnapshot(tr)
			want := []obs.PhaseSpan{
				{Name: obs.PhaseFilter, DurationUS: res.FilterTime.Microseconds()},
				{Name: obs.PhaseVerify, DurationUS: res.VerifyTime.Microseconds()},
			}
			if !slices.Equal(s.Phases, want) {
				t.Errorf("%s q%d: phases %+v, want %+v", name, qi, s.Phases, want)
			}
			if s.VerificationsTotal != len(events) || s.Fingerprint != res.Fingerprint.String() {
				t.Errorf("%s q%d: trace view %d events, fingerprint %q; want %d and %s",
					name, qi, s.VerificationsTotal, s.Fingerprint, len(events), res.Fingerprint)
			}
			// Workers is the clamped pool size of a loop that ran on more
			// than one worker, 0 for a sequential one.
			if eng, ok := e.(*engine); ok && len(events) > 0 {
				wantWorkers := eng.poolSize(3)
				if wantWorkers == 1 {
					wantWorkers = 0
				}
				if res.Workers != wantWorkers || s.Workers != wantWorkers {
					t.Errorf("%s q%d: Workers %d (trace %d), want %d", name, qi, res.Workers, s.Workers, wantWorkers)
				}
			}
		}
	}
}

// TestObserverCacheEvents: the cached engine reports a miss on first
// sight of a query and a hit on the repeat, on the Result and in its trace
// view; an engine without a cache reports neither.
func TestObserverCacheEvents(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	db := randomDB(r, 20, 8, 3)
	e := NewCached(NewCFQL(), 8)
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)

	first := e.Query(q, QueryOptions{})
	if s := first.TraceSnapshot(nil); first.Cache != CacheMiss || s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Errorf("first query: Cache %q, trace %d misses %d hits; want a miss", first.Cache, s.CacheMisses, s.CacheHits)
	}
	second := e.Query(q, QueryOptions{})
	if s := second.TraceSnapshot(nil); second.Cache != CacheExact || s.CacheHits != 1 || s.CacheMisses != 0 {
		t.Errorf("second query: Cache %q, trace %d hits %d misses; want an exact hit", second.Cache, s.CacheHits, s.CacheMisses)
	}
	if len(first.Answers) != len(second.Answers) {
		t.Errorf("cached answers differ: %d vs %d", len(first.Answers), len(second.Answers))
	}

	bare := NewCFQL()
	if err := bare.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if res := bare.Query(q, QueryOptions{}); res.Cache != "" {
		t.Errorf("engine without a cache reports Cache %q", res.Cache)
	}
}

// benchQuery prepares a built engine and query for the observer
// benchmarks.
func benchQuery(b *testing.B) (Engine, *graph.Graph) {
	b.Helper()
	r := rand.New(rand.NewSource(41))
	db := randomDB(r, 50, 10, 3)
	e := NewCFQL()
	if err := e.Build(db, BuildOptions{}); err != nil {
		b.Fatal(err)
	}
	return e, walkQuery(r, db.Graph(2), 4)
}

// BenchmarkQueryNoObserver is the baseline for the disabled-path overhead
// claim: compare against BenchmarkQueryWithObserver.
func BenchmarkQueryNoObserver(b *testing.B) {
	e, q := benchQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Query(q, QueryOptions{})
	}
}

func BenchmarkQueryWithObserver(b *testing.B) {
	e, q := benchQuery(b)
	o := obs.NewTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Query(q, QueryOptions{Observer: o})
	}
}

// TestObserverNilIsNoop: a nil Observer field must not change results.
func TestObserverNilIsNoop(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	db := randomDB(r, 20, 8, 3)
	e := NewCFQL()
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(1), 3)
	with := e.Query(q, QueryOptions{Observer: obs.NewTrace()})
	without := e.Query(q, QueryOptions{})
	if len(with.Answers) != len(without.Answers) || with.Candidates != without.Candidates {
		t.Errorf("observer changed results: %d/%d answers, %d/%d candidates",
			len(with.Answers), len(without.Answers), with.Candidates, without.Candidates)
	}
}
