package cluster

import (
	"sort"

	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
)

// Shard hosts one partition of the database behind its own engine
// instance. The engine sees a compact sub-database (local ids 0..k-1);
// the shard owns the mapping back to global graph ids and rewrites every
// id-bearing Result field before the coordinator merges.
type Shard struct {
	id      int
	engine  core.Engine
	globals []int // ascending global graph ids; globals[local] = global
}

// NewShard builds the shard's sub-database from the partition's global
// ids (must be ascending, as groupByShard produces) and hands it to the
// engine's Build.
func NewShard(id int, eng core.Engine, db *graph.Database, globals []int,
	opts core.BuildOptions) (*Shard, error) {
	sub := make([]*graph.Graph, len(globals))
	for local, global := range globals {
		sub[local] = db.Graph(global)
	}
	if err := eng.Build(graph.NewDatabase(sub), opts); err != nil {
		return nil, err
	}
	return &Shard{id: id, engine: eng, globals: globals}, nil
}

// ID returns the shard's index in the cluster.
func (s *Shard) ID() int { return s.id }

// Globals returns the shard's ascending global graph-id partition;
// callers must not modify it.
func (s *Shard) Globals() []int { return s.globals }

// Len returns the number of graphs this shard serves.
func (s *Shard) Len() int { return len(s.globals) }

// IndexMemory returns the shard engine's index footprint.
func (s *Shard) IndexMemory() int64 { return s.engine.IndexMemory() }

// Query runs the query on the shard's engine and rewrites the result into
// global graph ids.
func (s *Shard) Query(q *graph.Graph, opts core.QueryOptions) *core.Result {
	res := s.engine.Query(q, opts)
	s.rewrite(res)
	return res
}

// rewrite maps the engine's local graph ids back to the shard's global
// ids, in place. The globals slice is ascending, so a sorted local
// answer list stays sorted after mapping — merge order is preserved for
// free.
func (s *Shard) rewrite(res *core.Result) {
	if res == nil {
		return
	}
	for i, local := range res.Answers {
		res.Answers[i] = s.global(local)
	}
	if !sort.IntsAreSorted(res.Answers) {
		sort.Ints(res.Answers) // defensive: engines return ascending ids
	}
	for _, qe := range res.GraphErrors {
		if qe.GraphID >= 0 {
			qe.GraphID = s.global(qe.GraphID)
		}
		if qe.Shard < 0 {
			qe.Shard = s.id
		}
	}
}

// global translates a local id, tolerating out-of-range values from a
// misbehaving engine (returned unchanged rather than panicking at the
// transport boundary).
func (s *Shard) global(local int) int {
	if local < 0 || local >= len(s.globals) {
		return local
	}
	return s.globals[local]
}
