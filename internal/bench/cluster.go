package bench

import (
	"fmt"
	"time"

	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// The cluster study measures the scatter-gather serving tier: the same
// engine and workload at increasing shard counts. It is not a paper
// experiment; it documents what the coordinator costs (fan-out, merge,
// per-shard admission) and buys (smaller per-shard databases, parallel
// shard execution) relative to the single-engine baseline at N=1.

// ClusterStudyConfig selects the cluster track's sweep beyond the shared
// harness Config.
type ClusterStudyConfig struct {
	// Engine is the per-shard engine name (NewEngine); default CFQL.
	Engine string
	// ShardCounts is the sweep; default {1, 2, 4, 8}.
	ShardCounts []int
	// Replicas per shard; default 1 (no hedging).
	Replicas int
}

func (c ClusterStudyConfig) normalized() ClusterStudyConfig {
	if c.Engine == "" {
		c.Engine = "CFQL"
	}
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// ClusterRow holds one shard count's aggregate behaviour.
type ClusterRow struct {
	Shards      int
	Replicas    int
	BuildTime   time.Duration // all shards × replicas, sequential
	IndexMemory int64         // summed over every replica
	QueryTime   time.Duration // average per query
	QueryP50    time.Duration
	QueryP99    time.Duration
	Candidates  float64
	Answers     float64
	TimedOut    int
	// Coordinator robustness counters over the run (all zero on a healthy
	// in-process transport unless hedging is enabled).
	Retries   uint64
	Hedges    uint64
	HedgeWins uint64
}

// RunCluster executes the per-shard-count track on an AIDS-like workload.
func RunCluster(cfg Config, study ClusterStudyConfig) ([]ClusterRow, error) {
	cfg = cfg.normalized()
	study = study.normalized()
	db, err := loadReal(gen.AIDS, cfg)
	if err != nil {
		return nil, err
	}
	var workload []*graph.Graph
	for _, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
		qs, err := gen.QuerySet(db, gen.QuerySetConfig{
			Count: cfg.QueryCount, Edges: 8, Method: m, Seed: cfg.Seed + 5,
		})
		if err != nil {
			return nil, err
		}
		workload = append(workload, qs...)
	}

	factory := func() core.Engine {
		e, ferr := NewEngine(study.Engine)
		if ferr != nil {
			panic(ferr) // unreachable: validated below before any Build
		}
		return e
	}
	if _, err := NewEngine(study.Engine); err != nil {
		return nil, err
	}

	var rows []ClusterRow
	for _, n := range study.ShardCounts {
		c, err := cluster.New(cluster.Config{
			Shards:   n,
			Replicas: study.Replicas,
			Factory:  factory,
			BaseName: study.Engine,
		})
		if err != nil {
			return nil, err
		}
		row := ClusterRow{Shards: n, Replicas: study.Replicas}
		t0 := time.Now()
		if err := c.Build(db, cfg.buildOptions(study.Engine)); err != nil {
			return nil, fmt.Errorf("bench: building %d-shard cluster: %w", n, err)
		}
		row.BuildTime = time.Since(t0)
		row.IndexMemory = c.IndexMemory()
		m := RunQuerySet(c, workload, cfg)
		row.QueryTime = m.QueryTime()
		row.QueryP50 = m.QueryP50
		row.QueryP99 = m.QueryP99
		row.Candidates = m.Candidates
		row.Answers = m.Answers
		row.TimedOut = m.TimedOut
		st := c.Stats()
		row.Retries, row.Hedges, row.HedgeWins = st.Retries, st.Hedges, st.HedgeWins
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCluster prints the per-shard-count comparison table.
func RenderCluster(cfg Config, study ClusterStudyConfig, rows []ClusterRow) {
	cfg = cfg.normalized()
	study = study.normalized()
	w := cfg.Out
	fmt.Fprintf(w, "Cluster study: %s behind a scatter-gather coordinator on AIDS-like Q8S+Q8D (hash partitioning)\n",
		study.Engine)
	fmt.Fprintf(w, "%-8s %4s %10s %10s %10s %10s %10s %8s %8s %8s\n",
		"shards", "rep", "build", "index MB", "query", "p50", "p99", "|A(q)|", "timeout", "hedges")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %4d %10s %10.3f %10s %10s %10s %8.1f %8d %8d\n",
			r.Shards, r.Replicas, fmtDuration(r.BuildTime), mb(r.IndexMemory),
			fmtDuration(r.QueryTime), fmtDuration(r.QueryP50), fmtDuration(r.QueryP99),
			r.Answers, r.TimedOut, r.Hedges)
	}
}
