package bench

import (
	"fmt"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
)

// IndexCell is one cell of an indexing-time table: the build duration or an
// out-of-budget marker (the paper's OOT/OOM).
type IndexCell struct {
	Time time.Duration
	OOT  bool
}

func (c IndexCell) String() string {
	if c.OOT {
		return "OOT"
	}
	return fmtDuration(c.Time)
}

// RealEvaluation holds every measurement of the real-dataset study: query
// set statistics (Table V), indexing time (Table VI), per-engine query
// metrics (Figures 2–7) and memory cost (Table VII). Computing it once and
// rendering many views mirrors how the paper derives its figures from one
// experiment run.
type RealEvaluation struct {
	Config        Config
	Datasets      []gen.RealDataset
	QuerySetNames []string

	DBStats   map[gen.RealDataset]coreStats
	QueryStat map[gen.RealDataset]map[string]gen.QuerySetStats
	IndexTime map[gen.RealDataset]map[string]IndexCell
	Metrics   map[gen.RealDataset]map[string]map[string]SetMetrics
	// Available marks engines whose index built within budget per dataset.
	Available map[gen.RealDataset]map[string]bool
	// IndexMemory is the per-dataset index footprint per indexed engine.
	IndexMemory map[gen.RealDataset]map[string]int64
	// DatasetMemory is the CSR byte size of each dataset.
	DatasetMemory map[gen.RealDataset]int64
	// CFQLMemory is the peak candidate-set memory of CFQL per dataset.
	CFQLMemory map[gen.RealDataset]int64
}

type coreStats struct {
	Graphs   int
	Vertices float64
	Edges    float64
	Degree   float64
}

// RunReal executes the full real-dataset study.
func RunReal(cfg Config) (*RealEvaluation, error) {
	cfg = cfg.normalized()
	ev := &RealEvaluation{
		Config:        cfg,
		Datasets:      gen.RealDatasets(),
		DBStats:       map[gen.RealDataset]coreStats{},
		QueryStat:     map[gen.RealDataset]map[string]gen.QuerySetStats{},
		IndexTime:     map[gen.RealDataset]map[string]IndexCell{},
		Metrics:       map[gen.RealDataset]map[string]map[string]SetMetrics{},
		Available:     map[gen.RealDataset]map[string]bool{},
		IndexMemory:   map[gen.RealDataset]map[string]int64{},
		DatasetMemory: map[gen.RealDataset]int64{},
		CFQLMemory:    map[gen.RealDataset]int64{},
	}

	for _, ds := range ev.Datasets {
		db, err := loadReal(ds, cfg)
		if err != nil {
			return nil, err
		}
		s := db.ComputeStats()
		ev.DBStats[ds] = coreStats{Graphs: s.NumGraphs, Vertices: s.VerticesPerGraph, Edges: s.EdgesPerGraph, Degree: s.DegreePerGraph}
		ev.DatasetMemory[ds] = db.MemoryFootprint()

		sets, names, err := querySets(db, cfg)
		if err != nil {
			return nil, err
		}
		if ev.QuerySetNames == nil {
			ev.QuerySetNames = names
		}
		ev.QueryStat[ds] = map[string]gen.QuerySetStats{}
		for name, qs := range sets {
			ev.QueryStat[ds][name] = gen.ComputeQuerySetStats(qs)
		}

		ev.IndexTime[ds] = map[string]IndexCell{}
		ev.Available[ds] = map[string]bool{}
		ev.IndexMemory[ds] = map[string]int64{}
		ev.Metrics[ds] = map[string]map[string]SetMetrics{}
		for _, name := range names {
			ev.Metrics[ds][name] = map[string]SetMetrics{}
		}

		engines := map[string]core.Engine{}
		for _, en := range EngineNames {
			e, err := NewEngine(en)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			err = e.Build(db, cfg.buildOptions(en))
			elapsed := time.Since(t0)
			if IsIndexed(en) {
				// vcGrapes/vcGGSX share their base index's cell; record
				// the pure IFV ones for Table VI.
				if en == "CT-Index" || en == "Grapes" || en == "GGSX" {
					ev.IndexTime[ds][en] = IndexCell{Time: elapsed, OOT: err != nil}
				}
			}
			if err != nil {
				ev.Available[ds][en] = false
				continue
			}
			ev.Available[ds][en] = true
			ev.IndexMemory[ds][en] = e.IndexMemory()
			engines[en] = e
		}

		for _, setName := range names {
			for en, e := range engines {
				m := RunQuerySet(e, sets[setName], cfg)
				ev.Metrics[ds][setName][en] = m
				if en == "CFQL" && m.AuxMemory > ev.CFQLMemory[ds] {
					ev.CFQLMemory[ds] = m.AuxMemory
				}
			}
		}
	}
	return ev, nil
}

// --- rendering ---------------------------------------------------------

// RenderTableV prints the query set statistics (paper Table V).
func (ev *RealEvaluation) RenderTableV() {
	w := ev.Config.Out
	fmt.Fprintln(w, "Table V: statistics of query sets on the real-world datasets")
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, "\n%s:\n%-12s %8s %8s %8s %8s\n", ds, "query set", "|V|/q", "|Σ|/q", "d/q", "%trees")
		for _, name := range ev.QuerySetNames {
			s := ev.QueryStat[ds][name]
			fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f %8.2f\n",
				name, s.VerticesPerQuery, s.LabelsPerQuery, s.DegreePerQuery, s.TreeFraction)
		}
	}
}

// RenderTableVI prints indexing time on the real datasets (paper Table VI).
func (ev *RealEvaluation) RenderTableVI() {
	w := ev.Config.Out
	fmt.Fprintln(w, "Table VI: indexing time on real-world datasets")
	fmt.Fprintf(w, "%-10s", "")
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, " %10s", ds)
	}
	fmt.Fprintln(w)
	for _, en := range []string{"CT-Index", "GGSX", "Grapes"} {
		fmt.Fprintf(w, "%-10s", en)
		for _, ds := range ev.Datasets {
			fmt.Fprintf(w, " %10s", ev.IndexTime[ds][en])
		}
		fmt.Fprintln(w)
	}
}

// RenderTableVII prints memory cost on the real datasets (paper Table VII).
func (ev *RealEvaluation) RenderTableVII() {
	w := ev.Config.Out
	fmt.Fprintln(w, "Table VII: memory cost on real-world datasets (MB)")
	fmt.Fprintf(w, "%-10s", "")
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, " %10s", ds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "Datasets")
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, " %10.3f", mb(ev.DatasetMemory[ds]))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "CFQL")
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, " %10.3f", mb(ev.CFQLMemory[ds]))
	}
	fmt.Fprintln(w)
	for _, en := range []string{"CT-Index", "GGSX", "Grapes"} {
		fmt.Fprintf(w, "%-10s", en)
		for _, ds := range ev.Datasets {
			if !ev.Available[ds][en] {
				fmt.Fprintf(w, " %10s", "N/A")
			} else {
				fmt.Fprintf(w, " %10.3f", mb(ev.IndexMemory[ds][en]))
			}
		}
		fmt.Fprintln(w)
	}
}

// figure renders one metric across datasets × query sets × engines, the
// layout of Figures 2–7.
func (ev *RealEvaluation) figure(title string, metric func(SetMetrics) string) {
	w := ev.Config.Out
	fmt.Fprintln(w, title)
	for _, ds := range ev.Datasets {
		fmt.Fprintf(w, "\n%s:\n%-10s", ds, "")
		for _, en := range EngineNames {
			fmt.Fprintf(w, " %10s", en)
		}
		fmt.Fprintln(w)
		for _, name := range ev.QuerySetNames {
			fmt.Fprintf(w, "%-10s", name)
			for _, en := range EngineNames {
				if !ev.Available[ds][en] {
					fmt.Fprintf(w, " %10s", "-")
					continue
				}
				fmt.Fprintf(w, " %10s", metric(ev.Metrics[ds][name][en]))
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderFig2 prints filtering precision (paper Figure 2).
func (ev *RealEvaluation) RenderFig2() {
	ev.figure("Figure 2: filtering precision on the real-world datasets",
		func(m SetMetrics) string { return fmt.Sprintf("%.3f", m.Precision) })
}

// RenderFig3 prints filtering time (paper Figure 3).
func (ev *RealEvaluation) RenderFig3() {
	ev.figure("Figure 3: filtering time on the real-world datasets",
		func(m SetMetrics) string { return fmtDuration(m.FilterTime) })
}

// RenderFig4 prints verification time (paper Figure 4).
func (ev *RealEvaluation) RenderFig4() {
	ev.figure("Figure 4: verification time on the real-world datasets",
		func(m SetMetrics) string { return fmtDuration(m.VerifyTime) })
}

// RenderFig5 prints per-SI-test time (paper Figure 5).
func (ev *RealEvaluation) RenderFig5() {
	ev.figure("Figure 5: per SI test time on the real-world datasets",
		func(m SetMetrics) string { return fmtDuration(m.PerSITest) })
}

// RenderFig6 prints candidate counts (paper Figure 6).
func (ev *RealEvaluation) RenderFig6() {
	ev.figure("Figure 6: number of candidate graphs on the real-world datasets",
		func(m SetMetrics) string { return fmt.Sprintf("%.1f", m.Candidates) })
}

// RenderFig7 prints query time (paper Figure 7).
func (ev *RealEvaluation) RenderFig7() {
	ev.figure("Figure 7: query time on the real-world datasets",
		func(m SetMetrics) string { return fmtDuration(m.QueryTime()) })
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func fmtDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
