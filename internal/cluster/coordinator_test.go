package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
)

// stubTransport scripts per-shard behavior: fn receives the 1-based
// attempt number for its shard and full QueryOptions, and returns what
// the transport would.
type stubTransport struct {
	shards   int
	replicas int
	calls    []atomic.Int64
	fn       func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error)
}

func newStub(shards, replicas int, fn func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error)) *stubTransport {
	return &stubTransport{shards: shards, replicas: replicas, calls: make([]atomic.Int64, shards), fn: fn}
}

func (s *stubTransport) Query(shard, replica int, q *graph.Graph, opts core.QueryOptions) (*core.Result, error) {
	return s.fn(shard, replica, s.calls[shard].Add(1), opts)
}
func (s *stubTransport) NumShards() int   { return s.shards }
func (s *stubTransport) Replicas(int) int { return s.replicas }

var testQuery = graph.MustFromEdges([]graph.Label{0, 1}, []graph.Edge{{U: 0, V: 1}})

// fastCfg keeps retry/hedge waits microscopic so tests run in
// milliseconds; hedging off unless a test turns it on.
func fastCfg() Config {
	return Config{
		BaseName:   "stub",
		RetryBase:  200 * time.Microsecond,
		RetryCap:   time.Millisecond,
		HedgeAfter: -1,
	}
}

func TestCoordinatorRetriesTransientErrors(t *testing.T) {
	stub := newStub(2, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		if shard == 1 && attempt <= 2 {
			return nil, fmt.Errorf("%w: flaky", ErrShardUnavailable)
		}
		if shard == 0 {
			return &core.Result{Answers: []int{0}}, nil
		}
		return &core.Result{Answers: []int{3}}, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Query(testQuery, core.QueryOptions{})
	if res.Err != nil || res.Degraded {
		t.Fatalf("err=%v degraded=%v, want clean recovery", res.Err, res.Degraded)
	}
	if len(res.Answers) != 2 || res.Answers[0] != 0 || res.Answers[1] != 3 {
		t.Fatalf("answers %v, want [0 3]", res.Answers)
	}
	if s := c.Stats(); s.Retries != 2 || s.ShardsLost != 0 {
		t.Errorf("stats retries=%d shardsLost=%d, want 2 retries, 0 lost", s.Retries, s.ShardsLost)
	}
}

func TestCoordinatorDegradesPermanentlyLostShard(t *testing.T) {
	stub := newStub(2, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		if shard == 1 {
			return nil, fmt.Errorf("%w: dead", ErrShardUnavailable)
		}
		return &core.Result{Answers: []int{1}, Candidates: 2}, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0, 1, 2}, {3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Query(testQuery, core.QueryOptions{})
	if res.Err != nil {
		t.Fatalf("one live shard must keep the query alive, got Err=%v", res.Err)
	}
	if !res.Degraded {
		t.Fatal("want Degraded for a lost shard")
	}
	if res.Skipped != 4 {
		t.Errorf("Skipped=%d, want the lost partition's 4 graphs", res.Skipped)
	}
	if len(res.GraphErrors) != 1 {
		t.Fatalf("GraphErrors=%d, want exactly the shard-loss entry", len(res.GraphErrors))
	}
	qe := res.GraphErrors[0]
	if qe.Kind != core.KindShard || qe.Shard != 1 {
		t.Errorf("entry kind=%q shard=%d, want shard-loss for shard 1", qe.Kind, qe.Shard)
	}
	if len(res.Answers) != 1 || res.Answers[0] != 1 {
		t.Errorf("answers %v, want the surviving shard's [1]", res.Answers)
	}
	if got := stub.calls[1].Load(); got != 3 {
		t.Errorf("lost shard saw %d attempts, want maxAttempts=3", got)
	}
	if s := c.Stats(); s.ShardsLost != 1 || s.DegradedQueries != 1 {
		t.Errorf("stats lost=%d degraded=%d, want 1/1", s.ShardsLost, s.DegradedQueries)
	}
}

func TestCoordinatorAllShardsLostFailsQuery(t *testing.T) {
	stub := newStub(2, 1, func(int, int, int64, core.QueryOptions) (*core.Result, error) {
		return nil, errors.New("total outage")
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Query(testQuery, core.QueryOptions{})
	if res.Err == nil {
		t.Fatal("every shard lost: want Result.Err, not a silent empty answer")
	}
	if res.Err.Kind != core.KindShard || !res.Degraded {
		t.Errorf("err kind=%q degraded=%v", res.Err.Kind, res.Degraded)
	}
}

// A panic escaping the transport (injected chaos, buggy transport) is a
// transient error, never a process crash.
func TestCoordinatorSurvivesTransportPanic(t *testing.T) {
	stub := newStub(1, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		if attempt == 1 {
			panic("transport wire fault")
		}
		return &core.Result{Answers: []int{0}}, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Query(testQuery, core.QueryOptions{})
	if res.Err != nil || res.Degraded || len(res.Answers) != 1 {
		t.Fatalf("err=%v degraded=%v answers=%v, want recovery on retry", res.Err, res.Degraded, res.Answers)
	}
}

func TestCoordinatorHedgeWinsAndLoserIsCancelled(t *testing.T) {
	var slowSawCancel, loserHandleCancelled atomic.Bool
	stub := newStub(1, 2, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		if replica == 0 {
			// Primary: stuck until cancelled.
			select {
			case <-opts.Context.Done():
				slowSawCancel.Store(true)
				loserHandleCancelled.Store(opts.Handle.Snapshot(time.Now()).Cancelled)
				return &core.Result{TimedOut: true, Cancelled: true}, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("test hung: loser never cancelled")
			}
		}
		return &core.Result{Answers: []int{7}}, nil
	})
	cfg := fastCfg()
	cfg.HedgeAfter = 2 * time.Millisecond
	c, err := NewWithTransport(cfg, stub, [][]int{{7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	reg := inflight.NewRegistry(16)
	res := queryTracked(c, testQuery, reg)
	if res.Err != nil || res.Degraded {
		t.Fatalf("err=%v degraded=%v", res.Err, res.Degraded)
	}
	if len(res.Answers) != 1 || res.Answers[0] != 7 {
		t.Fatalf("answers %v, want the hedge's [7]", res.Answers)
	}
	if s := c.Stats(); s.Hedges != 1 || s.HedgeWins != 1 {
		t.Errorf("stats hedges=%d wins=%d, want 1/1", s.Hedges, s.HedgeWins)
	}
	// The loser must observe cancellation and its handle must leave the
	// registry — the no-leak property the chaos storm asserts at scale.
	awaitDrained(t, reg)
	if !slowSawCancel.Load() {
		t.Fatal("loser deregistered without seeing its cancellation")
	}
	if !loserHandleCancelled.Load() {
		t.Error("the loser's sub-handle did not read cancelled when its context ended")
	}
}

// queryTracked runs q the way the server does: under a live handle
// registered in reg, whose registry the coordinator registers its shard
// attempts in, deregistered when Query returns.
func queryTracked(c *Coordinator, q *graph.Graph, reg *inflight.Registry) *core.Result {
	h := reg.Register(inflight.RegisterOptions{Engine: c.Name()})
	defer reg.Deregister(h)
	return c.Query(q, core.QueryOptions{Handle: h})
}

// awaitDrained waits, bounded, for every shard attempt to leave the
// registry. Query returns as soon as each round's winner has replied; an
// attempt — winner or cancelled loser — deregisters from its own goroutine
// after sending its reply, so the registry empties shortly after Query
// returns, not before. A handle still there at the deadline is a leak.
func awaitDrained(t *testing.T, reg *inflight.Registry) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight registry still holds %d handles, want 0", reg.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoordinatorCancelPropagatesToShards(t *testing.T) {
	stub := newStub(2, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		<-opts.Context.Done()
		return &core.Result{TimedOut: true, Cancelled: true}, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	res := c.Query(testQuery, core.QueryOptions{Context: ctx})
	if !res.Cancelled || !res.TimedOut {
		t.Fatalf("cancelled=%v timedOut=%v, want cooperative cancellation", res.Cancelled, res.TimedOut)
	}
	if res.Degraded || res.Err != nil {
		t.Errorf("a cancelled query is not a degraded one: degraded=%v err=%v", res.Degraded, res.Err)
	}
}

// A parent deadline with no cancel reaches every shard attempt as a
// deadline, not a cancellation: shards that classify their stop the way
// engines do (Result.NoteStop) merge into a timed-out, uncancelled,
// undegraded Result.
func TestCoordinatorParentDeadlineIsATimeout(t *testing.T) {
	stub := newStub(2, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		<-opts.Context.Done()
		res := &core.Result{}
		res.NoteStop(opts.Context)
		return res, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := c.Query(testQuery, core.QueryOptions{Context: ctx})
	if !res.TimedOut || res.Cancelled || res.Degraded || res.Err != nil {
		t.Fatalf("timedOut=%v cancelled=%v degraded=%v err=%v, want a plain timeout",
			res.TimedOut, res.Cancelled, res.Degraded, res.Err)
	}
}

// TestCoordinatorStopsOnContext is the engine table's two stop cases
// (core's TestCancelStopsQuery) on a 2-shard coordinator over real
// engines: a cancelled context sets Cancelled and TimedOut, an expired
// deadline TimedOut alone, and neither degrades the result.
func TestCoordinatorStopsOnContext(t *testing.T) {
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 20, NumVertices: 12, NumLabels: 3, Degree: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 1, Edges: 3, Method: gen.QueryRandomWalk, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Shards: 2, Factory: core.NewCFQL})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Build(db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, release := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer release()
	for why, tc := range map[string]struct {
		ctx           context.Context
		wantCancelled bool
	}{
		"cancelled context": {cancelled, true},
		"expired context":   {expired, false},
	} {
		res := c.Query(queries[0], core.QueryOptions{Context: tc.ctx})
		if !res.TimedOut || res.Cancelled != tc.wantCancelled || res.Degraded || res.Err != nil {
			t.Errorf("%s: TimedOut=%v Cancelled=%v Degraded=%v Err=%v, want true, %v, false, nil",
				why, res.TimedOut, res.Cancelled, res.Degraded, res.Err, tc.wantCancelled)
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s: answered %v for a query stopped before it started", why, res.Answers)
		}
	}
}

// The satellite fix at tier level: N shards' GraphErrors plus the
// coordinator's own shard-loss entries still respect the 16-entry cap,
// with the overflow counted.
func TestCoordinatorCapsMergedGraphErrors(t *testing.T) {
	mkErrs := func(base int) []*core.QueryError {
		out := make([]*core.QueryError, 12)
		for i := range out {
			out[i] = &core.QueryError{Engine: "stub", Kind: core.KindBudget, GraphID: base + i, Shard: -1}
		}
		return out
	}
	stub := newStub(3, 1, func(shard, replica int, attempt int64, opts core.QueryOptions) (*core.Result, error) {
		if shard == 2 {
			return nil, errors.New("down")
		}
		return &core.Result{Skipped: 12, GraphErrors: mkErrs(100 * shard)}, nil
	})
	c, err := NewWithTransport(fastCfg(), stub, [][]int{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Query(testQuery, core.QueryOptions{})
	if len(res.GraphErrors) != 16 {
		t.Fatalf("merged GraphErrors=%d, want the cap of 16", len(res.GraphErrors))
	}
	// 24 engine errors + 1 shard-loss entry = 25; 9 dropped.
	if res.GraphErrorsTruncated != 9 {
		t.Errorf("GraphErrorsTruncated=%d, want 9", res.GraphErrorsTruncated)
	}
	if res.GraphErrors[0].Kind != core.KindShard {
		t.Errorf("shard-loss entry must lead, got kind=%q", res.GraphErrors[0].Kind)
	}
	if res.Skipped != 12+12+2 {
		t.Errorf("Skipped=%d, want engine skips plus the lost partition", res.Skipped)
	}
	if s := c.Stats(); s.ErrorsTruncated != 9 {
		t.Errorf("stats ErrorsTruncated=%d, want 9", s.ErrorsTruncated)
	}
}

func TestCoordinatorQueryBeforeBuildFails(t *testing.T) {
	c, err := New(Config{Shards: 2, Factory: core.NewCFQL})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Query(testQuery, core.QueryOptions{}); res.Err == nil {
		t.Fatal("Query before Build must return a structured error")
	}
}

// End-to-end over the real Local transport: a sharded CFQL cluster must
// return exactly the single-engine answer set, with and without replicas,
// across shard counts.
func TestCoordinatorEndToEndMatchesSingleEngine(t *testing.T) {
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 80, NumVertices: 14, NumLabels: 4, Degree: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 8, Edges: 4, Method: gen.QueryRandomWalk, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewCFQL()
	if err := single.Build(db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(queries))
	for i, q := range queries {
		r := single.Query(q, core.QueryOptions{})
		if r.Err != nil {
			t.Fatalf("single engine query %d: %v", i, r.Err)
		}
		want[i] = r.Answers
	}
	for _, tc := range []struct {
		shards   int
		replicas int
	}{
		{1, 1},
		{3, 1},
		{4, 2},
	} {
		t.Run(fmt.Sprintf("hash-x%d-r%d", tc.shards, tc.replicas), func(t *testing.T) {
			c, err := New(Config{
				Shards:   tc.shards,
				Replicas: tc.replicas,
				Factory:  core.NewCFQL,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Build(db, core.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			if wantName := fmt.Sprintf("CFQL-x%d", tc.shards); c.Name() != wantName {
				t.Errorf("Name() = %q, want %q", c.Name(), wantName)
			}
			for i, q := range queries {
				res := c.Query(q, core.QueryOptions{})
				if res.Err != nil || res.Degraded {
					t.Fatalf("query %d: err=%v degraded=%v", i, res.Err, res.Degraded)
				}
				if !equalInts(res.Answers, want[i]) {
					t.Fatalf("query %d: cluster answers %v, single-engine %v", i, res.Answers, want[i])
				}
				if res.Fingerprint == 0 {
					t.Fatalf("query %d: zero fingerprint", i)
				}
			}
			if c.IndexMemory() < 0 {
				t.Error("negative index memory")
			}
		})
	}
}

// Killing every replica of one shard degrades exactly that partition;
// reviving restores full answers — the serving tier's core promise.
func TestCoordinatorKillReviveDegradesAndRecovers(t *testing.T) {
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 60, NumVertices: 12, NumLabels: 4, Degree: 3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 4, Edges: 4, Method: gen.QueryRandomWalk, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Shards, cfg.Factory, cfg.BaseName = 3, core.NewCFQL, ""
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Build(db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	full := make([][]int, len(queries))
	for i, q := range queries {
		full[i] = c.Query(q, core.QueryOptions{}).Answers
	}

	const victim = 1
	c.LocalTransport().KillShard(victim)
	lost := map[int]bool{}
	for _, id := range c.Partitions()[victim] {
		lost[id] = true
	}
	for i, q := range queries {
		res := c.Query(q, core.QueryOptions{})
		if !res.Degraded || res.Err != nil {
			t.Fatalf("query %d with shard %d down: degraded=%v err=%v", i, victim, res.Degraded, res.Err)
		}
		found := false
		for _, qe := range res.GraphErrors {
			if qe.Kind == core.KindShard && qe.Shard == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("query %d: no KindShard entry naming shard %d", i, victim)
		}
		for _, id := range res.Answers {
			if lost[id] {
				t.Fatalf("query %d: answer %d from the killed shard", i, id)
			}
		}
		// Degradation loses exactly the victim's graphs, nothing else.
		for _, id := range full[i] {
			if !lost[id] && !res.Contains(id) {
				t.Fatalf("query %d: surviving answer %d missing while degraded", i, id)
			}
		}
	}

	c.LocalTransport().ReviveShard(victim)
	for i, q := range queries {
		res := c.Query(q, core.QueryOptions{})
		if res.Degraded || !equalInts(res.Answers, full[i]) {
			t.Fatalf("query %d after revive: degraded=%v answers=%v want=%v",
				i, res.Degraded, res.Answers, full[i])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
