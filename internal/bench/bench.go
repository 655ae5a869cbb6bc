// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§IV). Each runner produces the same
// rows/series the paper reports — indexing time, filtering precision,
// filtering time, verification time, per-SI-test time, candidate counts,
// query time and memory cost — over simulated real-world datasets and
// GraphGen-style synthetic sweeps.
//
// Absolute numbers depend on scale and hardware; the reproduced quantity is
// the *shape*: which algorithm wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured per experiment.
package bench

import (
	"fmt"
	"io"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// Config controls the harness. Zero values select the scaled-down defaults
// suitable for a laptop run; Scale=1 with large deadlines approaches the
// paper's full configuration.
type Config struct {
	// Scale shrinks the simulated real-world datasets and the synthetic
	// sweep bases; (0,1]. Default 0.02.
	Scale float64
	// QueryCount is the number of queries per query set (paper: 100).
	// Default 10.
	QueryCount int
	// Seed drives all generation. Default 1.
	Seed int64
	// IndexBudget bounds each index construction (paper: 24h). Exceeding
	// it marks the cell OOT. Default 60s.
	IndexBudget time.Duration
	// QueryBudget bounds each query (paper: 10min). Default 5s.
	QueryBudget time.Duration
	// Workers is the parallelism for the Grapes configurations (paper: 6).
	Workers int
	// Out receives the rendered tables; nil discards them.
	Out io.Writer

	// maxFeatures and stepBudget are the deterministic stand-ins for the
	// two wall-clock budgets (core.BuildOptions.MaxFeatures,
	// core.QueryOptions.StepBudgetPerGraph; 0: unbounded). The smoke tests
	// set them, with wall-clock budgets out of reach, so that an index
	// build or a query runs out of budget in the same cells on every host.
	maxFeatures int64
	stepBudget  uint64
}

// buildOptions returns the budget of one build of engine, starting now. As
// in the paper, only the pooled configurations (Grapes) build on Workers;
// every other index, GGSX too, is built sequentially.
func (c Config) buildOptions(engine string) core.BuildOptions {
	workers := 1
	if IsPooled(engine) {
		workers = c.Workers
	}
	return core.BuildOptions{
		Deadline:    time.Now().Add(c.IndexBudget),
		Workers:     workers,
		MaxFeatures: c.maxFeatures,
	}
}

// Defaults returns the scaled-down default configuration.
func Defaults() Config {
	return Config{
		Scale:       0.02,
		QueryCount:  10,
		Seed:        1,
		IndexBudget: 60 * time.Second,
		QueryBudget: 5 * time.Second,
		Workers:     6,
	}
}

func (c Config) normalized() Config {
	d := Defaults()
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = d.Scale
	}
	if c.QueryCount <= 0 {
		c.QueryCount = d.QueryCount
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.IndexBudget <= 0 {
		c.IndexBudget = d.IndexBudget
	}
	if c.QueryBudget <= 0 {
		c.QueryBudget = d.QueryBudget
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// QueryEdgeSizes are the query sizes of the paper's real-dataset study.
var QueryEdgeSizes = []int{4, 8, 16, 32}

// EngineNames lists the eight competing algorithms in the paper's
// presentation order (Figure 2's bar order).
var EngineNames = []string{
	"CT-Index", "Grapes", "GGSX", // IFV
	"CFL", "GraphQL", "CFQL", // vcFV
	"vcGrapes", "vcGGSX", // IvcFV
}

// engines is the one name → constructor table: every comparable engine
// configuration, in the extension study's presentation order. NewEngine,
// IsIndexed and ExtensionEngines all read it.
var engines = []struct {
	name string
	new  func() core.Engine
}{
	{"Scan-VF2", core.NewScan},
	// enumeration-based IFV
	{"GraphGrep", core.NewGraphGrep},
	{"Grapes", core.NewGrapes},
	{"GGSX", core.NewGGSX},
	{"CT-Index", core.NewCTIndex},
	// mining-based IFV
	{"gIndex", core.NewGIndex},
	{"TreePi", core.NewTreePi},
	{"FG-Index", core.NewFGIndex},
	// index-free
	{"CFL", core.NewCFL},
	{"GraphQL", core.NewGraphQL},
	{"CFQL", core.NewCFQL},
	{"TurboIso", core.NewTurboIso},
	{"CFQL-parallel", func() core.Engine { return core.NewParallelCFQL(0) }},
	// integrated
	{"vcGrapes", core.NewVcGrapes},
	{"vcGGSX", core.NewVcGGSX},
}

// NewEngine constructs an engine by its paper name.
func NewEngine(name string) (core.Engine, error) {
	for _, e := range engines {
		if e.name == name {
			return e.new(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown engine %q", name)
}

// IsIndexed reports whether the named engine builds a persistent index —
// asked of the engine itself, so a new configuration cannot be forgotten.
func IsIndexed(name string) bool {
	e, err := NewEngine(name)
	if err != nil {
		return false
	}
	ix, ok := e.(interface{ Indexed() bool })
	return ok && ix.Indexed()
}

// IsPooled reports whether the named engine runs on a worker pool of its own
// (the Grapes configurations), asked of the engine like IsIndexed. Only these
// build their index on more than one worker in the paper.
func IsPooled(name string) bool {
	e, err := NewEngine(name)
	if err != nil {
		return false
	}
	p, ok := e.(interface{ Pooled() bool })
	return ok && p.Pooled()
}

// querySets generates the twelve query sets (4 sizes × sparse/dense/
// induced) for a database. The induced sets (Q*I) are the dense track the
// bench-diff gate watches: vertex-induced extraction maximizes average
// degree, which is where candidate sets are large and the bit-matrix
// domains and jump-redo backtracking matter.
func querySets(db *graph.Database, cfg Config) (map[string][]*graph.Graph, []string, error) {
	sets := make(map[string][]*graph.Graph)
	var names []string
	for _, method := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS, gen.QueryInduced} {
		for _, edges := range QueryEdgeSizes {
			qc := gen.QuerySetConfig{
				Count:  cfg.QueryCount,
				Edges:  edges,
				Method: method,
				Seed:   cfg.Seed + int64(edges)*10 + int64(method),
			}
			qs, err := gen.QuerySet(db, qc)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: generating %s: %w", qc.Name(), err)
			}
			sets[qc.Name()] = qs
			names = append(names, qc.Name())
		}
	}
	return sets, names, nil
}

// loadReal generates the simulated real-world dataset at the configured
// scale.
func loadReal(name gen.RealDataset, cfg Config) (*graph.Database, error) {
	// The large-graph datasets need gentler shrinking than AIDS' 40k
	// graphs; scale factors tuned so the default config runs in minutes.
	scale := cfg.Scale
	switch name {
	case gen.PDBS:
		scale = minF(1, cfg.Scale*5)
	case gen.PCM:
		scale = minF(1, cfg.Scale*4)
	case gen.PPI:
		scale = minF(1, cfg.Scale*10)
	}
	return gen.Real(name, scale, cfg.Seed)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
