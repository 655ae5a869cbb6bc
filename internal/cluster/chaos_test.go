//go:build sqchaos

package cluster

import (
	"sync"
	"testing"

	"subgraphquery/internal/core"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/inflight"
)

// With every dispatch dropped at the transport boundary, the retry
// budget drains on all shards and the query fails structurally — no
// panic, no hang, a KindShard error naming what was lost. Clearing the
// fault restores exact answers.
func TestClusterShardDropBlackoutThenRecovery(t *testing.T) {
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 40, NumVertices: 12, NumLabels: 4, Degree: 3, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 3, Edges: 4, Method: gen.QueryRandomWalk, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Shards, cfg.Factory, cfg.BaseName = 2, core.NewCFQL, ""
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Build(db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	baseline := c.Query(queries[0], core.QueryOptions{})
	if baseline.Err != nil {
		t.Fatalf("baseline: %v", baseline.Err)
	}

	t.Cleanup(func() { fault.Set(fault.Config{}) })
	fault.Set(fault.Config{Points: map[string]bool{fault.PointShard: true}, DropRate: 1, Seed: 7})
	res := c.Query(queries[0], core.QueryOptions{})
	if res.Err == nil || !res.Degraded {
		t.Fatalf("total blackout: err=%v degraded=%v, want structured failure", res.Err, res.Degraded)
	}
	if res.Err.Kind != core.KindShard {
		t.Errorf("err kind=%q, want shard", res.Err.Kind)
	}
	if fault.Drops() == 0 {
		t.Error("no injected drops fired")
	}

	fault.Set(fault.Config{})
	after := c.Query(queries[0], core.QueryOptions{})
	if after.Err != nil || after.Degraded || !equalInts(after.Answers, baseline.Answers) {
		t.Fatalf("post-recovery: err=%v degraded=%v answers=%v want=%v",
			after.Err, after.Degraded, after.Answers, baseline.Answers)
	}
}

// A concurrent storm under partial drop injection: every response is
// well-formed — clean and exact, or degraded with a KindShard entry —
// and the inflight registry drains to empty (no leaked sub-handles from
// retries or hedges).
func TestClusterDropStormAllResponsesWellFormed(t *testing.T) {
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 60, NumVertices: 12, NumLabels: 4, Degree: 3, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 10, Edges: 4, Method: gen.QueryRandomWalk, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Shards, cfg.Replicas, cfg.Factory, cfg.BaseName = 3, 2, core.NewCFQL, ""
	cfg.HedgeAfter = 0 // adaptive
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Build(db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	exact := make([][]int, len(queries))
	for i, q := range queries {
		exact[i] = c.Query(q, core.QueryOptions{}).Answers
	}

	t.Cleanup(func() { fault.Set(fault.Config{}) })
	fault.Set(fault.Config{Points: map[string]bool{fault.PointShard: true}, DropRate: 0.4, Seed: 99})

	reg := inflight.NewRegistry(256)
	const clients, total = 4, 100
	var wg sync.WaitGroup
	malformed := make([]int, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += clients {
				q := i % len(queries)
				res := queryTracked(c, queries[q], reg)
				switch {
				case res.Err != nil:
					// Structured total failure is well-formed too.
					if res.Err.Kind != core.KindShard {
						malformed[w]++
					}
				case res.Degraded:
					ok := false
					for _, qe := range res.GraphErrors {
						if qe.Kind == core.KindShard {
							ok = true
						}
					}
					if !ok {
						malformed[w]++
					}
				default:
					if !equalInts(res.Answers, exact[q]) {
						malformed[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, n := range malformed {
		if n != 0 {
			t.Errorf("client %d saw %d malformed responses", w, n)
		}
	}
	if fault.Drops() == 0 {
		t.Error("storm fired no drops")
	}
	awaitDrained(t, reg)
}
