package bench

import (
	"fmt"
	"time"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// The extensions study compares every engine in the module — the paper's
// eight plus the Table II reproductions and the extensions — on one
// AIDS-like workload. It is not a paper experiment; it documents where
// each design point sits on the indexing-cost / filtering-power /
// verification-speed surface.

// ExtensionEngines lists every comparable engine configuration: the names
// of the engines table, in its order.
var ExtensionEngines = func() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}()

// ExtensionRow holds one engine's aggregate behaviour.
type ExtensionRow struct {
	Engine      string
	BuildTime   time.Duration
	BuildOOT    bool
	IndexMemory int64
	QueryTime   time.Duration // average per query
	Candidates  float64
	Answers     float64
	TimedOut    int
}

// RunExtensions executes the study over sparse and dense 8-edge workloads.
func RunExtensions(cfg Config) ([]ExtensionRow, error) {
	cfg = cfg.normalized()
	db, err := loadReal(gen.AIDS, cfg)
	if err != nil {
		return nil, err
	}
	var workload [][]*graph.Graph
	for _, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS} {
		qs, err := gen.QuerySet(db, gen.QuerySetConfig{
			Count: cfg.QueryCount, Edges: 8, Method: m, Seed: cfg.Seed + 5,
		})
		if err != nil {
			return nil, err
		}
		workload = append(workload, qs)
	}

	var rows []ExtensionRow
	for _, name := range ExtensionEngines {
		e, err := NewEngine(name)
		if err != nil {
			return nil, err
		}
		row := ExtensionRow{Engine: name}
		t0 := time.Now()
		buildErr := e.Build(db, cfg.buildOptions(name))
		row.BuildTime = time.Since(t0)
		if buildErr != nil {
			row.BuildOOT = true
			rows = append(rows, row)
			continue
		}
		row.IndexMemory = e.IndexMemory()
		var total time.Duration
		n := 0
		for _, wl := range workload {
			m := RunQuerySet(e, wl, cfg)
			total += m.QueryTime() * time.Duration(m.Queries)
			row.Candidates += m.Candidates * float64(m.Queries)
			row.Answers += m.Answers * float64(m.Queries)
			row.TimedOut += m.TimedOut
			n += m.Queries
		}
		if n > 0 {
			row.QueryTime = total / time.Duration(n)
			row.Candidates /= float64(n)
			row.Answers /= float64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtensions prints the comparison table.
func RenderExtensions(cfg Config, rows []ExtensionRow) {
	cfg = cfg.normalized()
	w := cfg.Out
	fmt.Fprintln(w, "Extensions study: every engine on AIDS-like Q8S+Q8D")
	fmt.Fprintf(w, "%-14s %10s %10s %10s %9s %8s %8s\n",
		"engine", "build", "index MB", "query", "|C(q)|", "|A(q)|", "timeout")
	for _, r := range rows {
		build := fmtDuration(r.BuildTime)
		if r.BuildOOT {
			build = "OOT"
		}
		fmt.Fprintf(w, "%-14s %10s %10.3f %10s %9.1f %8.1f %8d\n",
			r.Engine, build, mb(r.IndexMemory), fmtDuration(r.QueryTime),
			r.Candidates, r.Answers, r.TimedOut)
	}
}
