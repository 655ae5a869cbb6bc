package bench

import (
	"fmt"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
)

// The synthetic scalability study (§IV-C): starting from the paper's
// default configuration {|D|=1000, |V(G)|=200, |Σ|=20, d(G)=8}, one
// parameter is varied at a time. At Scale < 1 the |D| and |V| bases shrink
// while the multiplier ladders stay the paper's, preserving the shape of
// every sweep.

// SweepAxis identifies a varied parameter.
type SweepAxis string

// The four sweep axes of Tables VIII/IX and Figures 8/9.
const (
	AxisLabels   SweepAxis = "|Σ|"
	AxisDegree   SweepAxis = "d(G)"
	AxisVertices SweepAxis = "|V(G)|"
	AxisGraphs   SweepAxis = "|D|"
)

// SweepAxes lists the axes in the paper's order.
func SweepAxes() []SweepAxis {
	return []SweepAxis{AxisLabels, AxisDegree, AxisVertices, AxisGraphs}
}

// SweepPoints returns the parameter values of one axis at the configured
// scale. |Σ| and d(G) ladders are the paper's exactly; the |V(G)| and |D|
// ladders apply the paper's multipliers to scaled bases.
func SweepPoints(axis SweepAxis, cfg Config) []int {
	cfg = cfg.normalized()
	baseD := clampInt(int(1000*cfg.Scale*5), 50, 1000)
	baseV := clampInt(int(200*cfg.Scale*25), 40, 200)
	switch axis {
	case AxisLabels:
		return []int{1, 10, 20, 40, 80}
	case AxisDegree:
		return []int{4, 8, 16, 32, 64}
	case AxisVertices:
		return []int{baseV / 4, baseV, baseV * 4, baseV * 16, baseV * 64}
	case AxisGraphs:
		return []int{baseD / 10, baseD, baseD * 10, baseD * 100, baseD * 1000}
	}
	return nil
}

// maxCellSlots bounds the total vertex count of one generated sweep cell;
// beyond it the cell is reported OOM (the paper's Grapes/GGSX hit OOM on
// the largest |D| and |V| cells; on this harness the index build of a
// larger cell exhausts memory the same way).
const maxCellSlots = 4_000_000

// syntheticConfig materializes one sweep cell's generator parameters.
func syntheticConfig(axis SweepAxis, value int, cfg Config) gen.SyntheticConfig {
	cfg = cfg.normalized()
	sc := gen.SyntheticConfig{
		NumGraphs:   clampInt(int(1000*cfg.Scale*5), 50, 1000),
		NumVertices: clampInt(int(200*cfg.Scale*25), 40, 200),
		NumLabels:   20,
		Degree:      8,
		Seed:        cfg.Seed,
	}
	switch axis {
	case AxisLabels:
		sc.NumLabels = value
	case AxisDegree:
		sc.Degree = float64(value)
		// Keep the paper's density ceiling: at scale 1 it pairs d=64 with
		// |V|=200; a shrunken base could make the degree infeasible.
		if minV := 4 * value; sc.NumVertices < minV {
			sc.NumVertices = minV
		}
	case AxisVertices:
		sc.NumVertices = value
	case AxisGraphs:
		sc.NumGraphs = value
	}
	return sc
}

// SyntheticCell holds every measurement of one sweep cell.
type SyntheticCell struct {
	Skipped bool // cell exceeded maxCellSlots: reported OOM

	DatasetMemory int64
	IndexTime     map[string]IndexCell // CT-Index, GGSX, Grapes
	IndexMemory   map[string]int64
	// Metrics maps engine name to Q8S metrics (Figures 8/9 engines).
	Metrics    map[string]SetMetrics
	CFQLMemory int64
}

// SyntheticEvaluation holds the full synthetic study.
type SyntheticEvaluation struct {
	Config Config
	// Cells[axis][i] corresponds to SweepPoints(axis, cfg)[i].
	Cells map[SweepAxis][]SyntheticCell
}

// SyntheticIndexEngines are the index builders of Table VIII.
var SyntheticIndexEngines = []string{"CT-Index", "GGSX", "Grapes"}

// SyntheticQueryEngines are the algorithms of Figures 8/9.
var SyntheticQueryEngines = []string{"Grapes", "GGSX", "CFQL", "vcGrapes"}

// RunSynthetic executes the synthetic scalability study.
func RunSynthetic(cfg Config) (*SyntheticEvaluation, error) {
	cfg = cfg.normalized()
	ev := &SyntheticEvaluation{Config: cfg, Cells: map[SweepAxis][]SyntheticCell{}}
	for _, axis := range SweepAxes() {
		for _, value := range SweepPoints(axis, cfg) {
			cell, err := runSyntheticCell(axis, value, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s=%d: %w", axis, value, err)
			}
			ev.Cells[axis] = append(ev.Cells[axis], cell)
		}
	}
	return ev, nil
}

func runSyntheticCell(axis SweepAxis, value int, cfg Config) (SyntheticCell, error) {
	cell := SyntheticCell{
		IndexTime:   map[string]IndexCell{},
		IndexMemory: map[string]int64{},
		Metrics:     map[string]SetMetrics{},
	}
	sc := syntheticConfig(axis, value, cfg)
	if int64(sc.NumGraphs)*int64(sc.NumVertices) > maxCellSlots {
		cell.Skipped = true
		return cell, nil
	}
	db, err := gen.Synthetic(sc)
	if err != nil {
		return cell, err
	}
	cell.DatasetMemory = db.MemoryFootprint()

	queries, err := gen.QuerySet(db, gen.QuerySetConfig{
		Count:  cfg.QueryCount,
		Edges:  8,
		Method: gen.QueryRandomWalk,
		Seed:   cfg.Seed + 81,
	})
	if err != nil {
		return cell, err
	}

	engines := map[string]core.Engine{}
	for _, en := range []string{"CT-Index", "GGSX", "Grapes", "CFQL", "vcGrapes"} {
		e, err := NewEngine(en)
		if err != nil {
			return cell, err
		}
		t0 := time.Now()
		buildErr := e.Build(db, cfg.buildOptions(en))
		if contains(SyntheticIndexEngines, en) {
			cell.IndexTime[en] = IndexCell{Time: time.Since(t0), OOT: buildErr != nil}
		}
		if buildErr != nil {
			continue
		}
		if IsIndexed(en) {
			cell.IndexMemory[en] = e.IndexMemory()
		}
		engines[en] = e
	}

	for _, en := range SyntheticQueryEngines {
		e, ok := engines[en]
		if !ok {
			continue
		}
		m := RunQuerySet(e, queries, cfg)
		cell.Metrics[en] = m
		if en == "CFQL" {
			cell.CFQLMemory = m.AuxMemory
		}
	}
	return cell, nil
}

// --- rendering ---------------------------------------------------------

// RenderTableVIII prints indexing time on the synthetic datasets.
func (ev *SyntheticEvaluation) RenderTableVIII() {
	w := ev.Config.Out
	fmt.Fprintln(w, "Table VIII: indexing time on synthetic datasets")
	for _, axis := range SweepAxes() {
		fmt.Fprintf(w, "\n%-10s", axis)
		for _, v := range SweepPoints(axis, ev.Config) {
			fmt.Fprintf(w, " %10d", v)
		}
		fmt.Fprintln(w)
		for _, en := range SyntheticIndexEngines {
			fmt.Fprintf(w, "%-10s", en)
			for i := range ev.Cells[axis] {
				cell := ev.Cells[axis][i]
				if cell.Skipped {
					fmt.Fprintf(w, " %10s", "OOM")
					continue
				}
				fmt.Fprintf(w, " %10s", cell.IndexTime[en])
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderTableIX prints memory cost on the synthetic datasets.
func (ev *SyntheticEvaluation) RenderTableIX() {
	w := ev.Config.Out
	fmt.Fprintln(w, "Table IX: memory cost on synthetic datasets (MB)")
	for _, axis := range SweepAxes() {
		fmt.Fprintf(w, "\nVary %-6s", axis)
		for _, v := range SweepPoints(axis, ev.Config) {
			fmt.Fprintf(w, " %10d", v)
		}
		fmt.Fprintln(w)
		rows := []struct {
			name string
			get  func(SyntheticCell) (float64, bool)
		}{
			{"Datasets", func(c SyntheticCell) (float64, bool) { return mb(c.DatasetMemory), true }},
			{"CFQL", func(c SyntheticCell) (float64, bool) { return mb(c.CFQLMemory), true }},
			{"GGSX", func(c SyntheticCell) (float64, bool) { m, ok := c.IndexMemory["GGSX"]; return mb(m), ok }},
			{"Grapes", func(c SyntheticCell) (float64, bool) { m, ok := c.IndexMemory["Grapes"]; return mb(m), ok }},
		}
		for _, row := range rows {
			fmt.Fprintf(w, "%-10s", row.name)
			for i := range ev.Cells[axis] {
				cell := ev.Cells[axis][i]
				if cell.Skipped {
					fmt.Fprintf(w, " %10s", "OOM")
					continue
				}
				if v, ok := row.get(cell); ok {
					fmt.Fprintf(w, " %10.4f", v)
				} else {
					fmt.Fprintf(w, " %10s", "N/A")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// figure renders one Q8S metric across the four sweeps (Figures 8/9).
func (ev *SyntheticEvaluation) figure(title string, metric func(SetMetrics) string) {
	w := ev.Config.Out
	fmt.Fprintln(w, title)
	for _, axis := range SweepAxes() {
		fmt.Fprintf(w, "\nVary %-6s", axis)
		for _, v := range SweepPoints(axis, ev.Config) {
			fmt.Fprintf(w, " %10d", v)
		}
		fmt.Fprintln(w)
		for _, en := range SyntheticQueryEngines {
			fmt.Fprintf(w, "%-10s", en)
			for i := range ev.Cells[axis] {
				cell := ev.Cells[axis][i]
				m, ok := cell.Metrics[en]
				if cell.Skipped || !ok {
					fmt.Fprintf(w, " %10s", "-")
					continue
				}
				fmt.Fprintf(w, " %10s", metric(m))
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderFig8 prints filtering precision on the synthetic sweeps.
func (ev *SyntheticEvaluation) RenderFig8() {
	ev.figure("Figure 8: filtering precision on the synthetic datasets (Q8S)",
		func(m SetMetrics) string { return fmt.Sprintf("%.3f", m.Precision) })
}

// RenderFig9 prints filtering time on the synthetic sweeps.
func (ev *SyntheticEvaluation) RenderFig9() {
	ev.figure("Figure 9: filtering time on the synthetic datasets (Q8S)",
		func(m SetMetrics) string { return fmtDuration(m.FilterTime) })
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
