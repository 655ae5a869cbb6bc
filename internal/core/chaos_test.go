//go:build sqchaos

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
)

// TestChaosEnginesSurviveFaults drives every engine through a query mix
// while the fault substrate injects panics, latency, allocation spikes and
// spurious aborts into the filter/order/enumerate/index-probe hot paths.
// The contract under fault: no crash, structured errors only, answers stay
// a subset of the truth (faults may lose answers, never invent them), and
// no scratch arena or goroutine outlives its query.
func TestChaosEnginesSurviveFaults(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := randomDB(r, 24, 10, 2)
	queries := make([]chaosQueryCase, 0, 8)
	for i := 0; i < 8; i++ {
		q := walkQuery(r, db.Graph(i%db.Len()), 2+i%3)
		queries = append(queries, chaosQueryCase{q: q, want: trueAnswers(db, q)})
	}

	// Build the engines with faults off: chaos targets query execution;
	// build-time faults would just fail construction before the paths under
	// test run.
	fault.Set(fault.Config{})
	engines := allEngines()
	for name, eng := range engines {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
	}

	baselineG := runtime.NumGoroutine()
	baselineS := matching.ScratchLive()

	fault.Set(fault.Config{
		PanicRate:   0.05,
		LatencyRate: 0.02,
		AllocRate:   0.02,
		AbortRate:   0.05,
		Latency:     100 * time.Microsecond,
		AllocBytes:  1 << 16,
		Seed:        1,
	})
	defer fault.Set(fault.Config{})

	var skipped, errs int
	for name, eng := range engines {
		for i, qc := range queries {
			res := eng.Query(qc.q, QueryOptions{Workers: 3})
			if res == nil {
				t.Fatalf("%s q%d: nil result under fault", name, i)
			}
			if res.Err != nil {
				// Whole-query failure (e.g. an index-probe panic outside any
				// per-graph boundary): must be structured.
				if res.Err.Kind != KindPanic || res.Err.Engine == "" {
					t.Errorf("%s q%d: malformed query error %+v", name, i, res.Err)
				}
				errs++
				continue
			}
			if res.Skipped != 0 {
				skipped += res.Skipped
				if len(res.GraphErrors) == 0 {
					t.Errorf("%s q%d: Skipped=%d with no GraphErrors", name, i, res.Skipped)
				}
			}
			for _, qe := range res.GraphErrors {
				if qe.Kind != KindPanic && qe.Kind != KindBudget {
					t.Errorf("%s q%d: unexpected graph-error kind %q", name, i, qe.Kind)
				}
				if qe.Message == "" {
					t.Errorf("%s q%d: graph error with empty message", name, i)
				}
			}
			// Faults lose answers (skips, aborts) but never invent them.
			wantSet := map[int]bool{}
			for _, gid := range qc.want {
				wantSet[gid] = true
			}
			for _, gid := range res.Answers {
				if !wantSet[gid] {
					t.Errorf("%s q%d: fault run invented answer %d (truth %v)", name, i, gid, qc.want)
				}
			}
		}
	}

	panics, latencies, allocs, aborts := fault.Counts()
	t.Logf("faults fired: %d panics, %d latencies, %d allocs, %d aborts; %d graphs skipped, %d query errors",
		panics, latencies, allocs, aborts, skipped, errs)
	if panics == 0 && aborts == 0 {
		t.Error("chaos run fired no panics or aborts; rates or injection points are dead")
	}

	// Quiesce, then assert nothing leaked.
	fault.Set(fault.Config{})
	if got := matching.ScratchLive(); got != baselineS {
		t.Errorf("scratch arenas leaked under fault: live %d, was %d", got, baselineS)
	}
	waitGoroutines(t, baselineG)

	// And with faults off again, results are exact: the chaos run left no
	// poisoned caches or stranded state behind.
	for name, eng := range engines {
		for i, qc := range queries {
			res := eng.Query(qc.q, QueryOptions{})
			if res.Err != nil || res.Skipped != 0 {
				t.Errorf("%s q%d after chaos: Err=%v Skipped=%d", name, i, res.Err, res.Skipped)
				continue
			}
			if !equalInts(res.Answers, qc.want) {
				t.Errorf("%s q%d after chaos: answers %v, want %v", name, i, res.Answers, qc.want)
			}
		}
	}
}

// TestChaosPointsFireOnWordSizedGraphs: the filter and enumeration fault
// points sit in front of the word kernels too. Every graph here has at most
// 64 vertices; a certain panic at the filter point skips each of them, one
// at the enumeration point skips exactly the graphs that pass the filter.
func TestChaosPointsFireOnWordSizedGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	db := randomDB(r, 20, 10, 2)
	q := walkQuery(r, db.Graph(0), 3)
	eng := NewCFQL()
	fault.Set(fault.Config{})
	defer fault.Set(fault.Config{})
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	calm := eng.Query(q, QueryOptions{})
	if calm.Candidates == 0 || calm.Candidates == db.Len() {
		t.Fatalf("fixture: %d of %d graphs pass the filter, want some but not all", calm.Candidates, db.Len())
	}
	for point, want := range map[string]int{fault.PointFilter: db.Len(), fault.PointEnumerate: calm.Candidates} {
		fault.Set(fault.Config{PanicRate: 1, Points: map[string]bool{point: true}, Seed: 3})
		res := eng.Query(q, QueryOptions{})
		if panics, _, _, _ := fault.Counts(); res.Skipped != want || int(panics) != want || len(res.Answers) != 0 {
			t.Errorf("%s: %d graphs skipped, %d panics fired, %d answers; want %d, %d, 0", point, res.Skipped, panics, len(res.Answers), want, want)
		}
	}
}

type chaosQueryCase struct {
	q    *graph.Graph
	want []int
}

// TestChaosCancelUnderLatency pins latency faults to the filter entry so
// every query is slow by construction, then cancels mid-flight: the
// parallel pools must observe the cancel between graphs and wind down.
func TestChaosCancelUnderLatency(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	db := randomDB(r, 30, 10, 2)
	q := walkQuery(r, db.Graph(0), 3)

	fault.Set(fault.Config{})
	defer fault.Set(fault.Config{})
	for name, eng := range map[string]Engine{
		"CFQL-parallel": NewParallelCFQL(3),
		"vcGrapes":      NewVcGrapes(),
	} {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		baseline := runtime.NumGoroutine()
		fault.Set(fault.Config{
			LatencyRate: 1,
			Latency:     2 * time.Millisecond,
			Points:      map[string]bool{fault.PointFilter: true},
			Seed:        2,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan *Result, 1)
		go func() { done <- eng.Query(q, QueryOptions{Context: ctx, Workers: 3}) }()
		time.Sleep(5 * time.Millisecond) // several graphs deep, many to go
		cancel()
		select {
		case res := <-done:
			if !res.Cancelled || !res.TimedOut {
				t.Errorf("%s: Cancelled=%v TimedOut=%v after mid-flight cancel under latency",
					name, res.Cancelled, res.TimedOut)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: query did not return after cancellation", name)
		}
		fault.Set(fault.Config{})
		waitGoroutines(t, baseline)
	}
}
