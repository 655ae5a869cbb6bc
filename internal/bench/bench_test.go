package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"subgraphquery/internal/gen"
)

// tinyConfig keeps harness tests fast and their outcome the same on every
// host: miniature datasets, few queries, and deterministic budgets — features
// enumerated per index build, search steps per subgraph isomorphism test —
// under wall-clock budgets no build or query of that size can reach. 600k
// features let every index build on the AIDS- and PDBS-like datasets and on
// the sparsest synthetic cell (d(G)=4); every other build is OOT, after a
// second or two at most (CT-Index, the costliest per feature).
func tinyConfig() Config {
	return Config{
		Scale:       0.002,
		QueryCount:  3,
		Seed:        2,
		IndexBudget: time.Minute,
		QueryBudget: 30 * time.Second,
		Workers:     2,
		maxFeatures: 600_000,
		stepBudget:  200_000,
	}
}

func TestDefaultsNormalized(t *testing.T) {
	var zero Config
	n := zero.normalized()
	if n.Scale <= 0 || n.QueryCount <= 0 || n.Seed == 0 ||
		n.IndexBudget <= 0 || n.QueryBudget <= 0 || n.Workers <= 0 || n.Out == nil {
		t.Errorf("normalized zero config has zero fields: %+v", n)
	}
}

func TestNewEngineKnowsAllNames(t *testing.T) {
	for _, name := range EngineNames {
		e, err := NewEngine(name)
		if err != nil {
			t.Errorf("NewEngine(%q): %v", name, err)
			continue
		}
		if e.Name() != name {
			t.Errorf("NewEngine(%q).Name() = %q", name, e.Name())
		}
	}
	if _, err := NewEngine("bogus"); err == nil {
		t.Error("NewEngine(bogus) should fail")
	}
	// Extension engines are constructible too.
	for _, name := range []string{"Scan-VF2", "TurboIso", "CFQL-parallel", "GraphGrep", "gIndex"} {
		if _, err := NewEngine(name); err != nil {
			t.Errorf("NewEngine(%q): %v", name, err)
		}
	}
}

// TestIsIndexed covers every engine name: the nine configurations with an
// index stage, the six without, and an unknown name.
func TestIsIndexed(t *testing.T) {
	indexed := map[string]bool{
		"CT-Index": true, "Grapes": true, "GGSX": true, "vcGrapes": true, "vcGGSX": true,
		"GraphGrep": true, "gIndex": true, "TreePi": true, "FG-Index": true,
	}
	if len(ExtensionEngines) != 15 {
		t.Fatalf("%d engine names, want 15: %v", len(ExtensionEngines), ExtensionEngines)
	}
	for _, name := range ExtensionEngines {
		if got := IsIndexed(name); got != indexed[name] {
			t.Errorf("IsIndexed(%q) = %v, want %v", name, got, indexed[name])
		}
	}
	if IsIndexed("bogus") {
		t.Error("IsIndexed(bogus) = true")
	}
}

func TestSweepPointsShape(t *testing.T) {
	cfg := tinyConfig()
	for _, axis := range SweepAxes() {
		pts := SweepPoints(axis, cfg)
		if len(pts) != 5 {
			t.Errorf("%s: %d points, want 5", axis, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("%s: points not increasing: %v", axis, pts)
			}
		}
	}
	if got := SweepPoints(AxisLabels, cfg); got[0] != 1 || got[4] != 80 {
		t.Errorf("label sweep = %v, want the paper's 1..80 ladder", got)
	}
	if got := SweepPoints(AxisDegree, cfg); got[0] != 4 || got[4] != 64 {
		t.Errorf("degree sweep = %v, want the paper's 4..64 ladder", got)
	}
}

func TestSyntheticConfigAppliesAxis(t *testing.T) {
	cfg := tinyConfig()
	if sc := syntheticConfig(AxisLabels, 40, cfg); sc.NumLabels != 40 {
		t.Errorf("labels axis not applied: %+v", sc)
	}
	if sc := syntheticConfig(AxisDegree, 16, cfg); sc.Degree != 16 {
		t.Errorf("degree axis not applied: %+v", sc)
	}
	if sc := syntheticConfig(AxisVertices, 77, cfg); sc.NumVertices != 77 {
		t.Errorf("vertices axis not applied: %+v", sc)
	}
	if sc := syntheticConfig(AxisGraphs, 33, cfg); sc.NumGraphs != 33 {
		t.Errorf("graphs axis not applied: %+v", sc)
	}
}

func TestLoadRealScalesPerDataset(t *testing.T) {
	cfg := tinyConfig()
	for _, ds := range []struct {
		name      string
		minGraphs int
	}{
		{"AIDS", 50}, {"PDBS", 10}, {"PCM", 8}, {"PPI", 4},
	} {
		db, err := loadReal(gen.RealDataset(ds.name), cfg)
		if err != nil {
			t.Fatalf("%s: %v", ds.name, err)
		}
		if db.Len() < ds.minGraphs {
			t.Errorf("%s: %d graphs, want >= %d", ds.name, db.Len(), ds.minGraphs)
		}
	}
}

func TestMinF(t *testing.T) {
	if minF(1, 2) != 1 || minF(3, 2) != 2 {
		t.Error("minF broken")
	}
}

func TestRunQuerySetMetrics(t *testing.T) {
	cfg := tinyConfig()
	db, err := gen.Synthetic(gen.SyntheticConfig{
		NumGraphs: 20, NumVertices: 30, NumLabels: 5, Degree: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{
		Count: 5, Edges: 4, Method: gen.QueryRandomWalk, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine("CFQL")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Build(db, cfg.buildOptions("CFQL")); err != nil {
		t.Fatal(err)
	}
	m := RunQuerySet(e, queries, cfg)
	if m.Queries != 5 {
		t.Errorf("Queries = %d, want 5", m.Queries)
	}
	if m.Answers <= 0 {
		t.Error("queries are drawn from the database; answers must be positive")
	}
	if m.Candidates < m.Answers {
		t.Errorf("candidates %.1f < answers %.1f", m.Candidates, m.Answers)
	}
	if m.Precision <= 0 || m.Precision > 1 {
		t.Errorf("precision %.3f outside (0,1]", m.Precision)
	}
	if m.TimedOut != 0 {
		t.Errorf("unexpected timeouts: %d", m.TimedOut)
	}
	if m.QueryTime() != m.FilterTime+m.VerifyTime {
		t.Error("QueryTime != FilterTime + VerifyTime")
	}
}

// TestRunRealSmoke runs the whole real-dataset study at miniature scale and
// validates the structural invariants of the results.
func TestRunRealSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	cfg := tinyConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	ev, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Datasets) != 4 || len(ev.QuerySetNames) != 12 {
		t.Fatalf("got %d datasets, %d query sets", len(ev.Datasets), len(ev.QuerySetNames))
	}
	for _, ds := range ev.Datasets {
		if ev.DatasetMemory[ds] <= 0 {
			t.Errorf("%s: dataset memory not recorded", ds)
		}
		// Engines that built must have metrics for every query set; all
		// engines on one dataset must agree on answer counts.
		for _, setName := range ev.QuerySetNames {
			var wantAnswers float64 = -1
			for en, ok := range ev.Available[ds] {
				if !ok {
					continue
				}
				m, present := ev.Metrics[ds][setName][en]
				if !present {
					t.Fatalf("%s/%s: no metrics for available engine %s", ds, setName, en)
				}
				if m.TimedOut > 0 {
					continue // timeouts make answer counts lower bounds
				}
				if wantAnswers < 0 {
					wantAnswers = m.Answers
				} else if m.Answers != wantAnswers {
					t.Errorf("%s/%s: %s answers %.2f != %.2f", ds, setName, en, m.Answers, wantAnswers)
				}
				if m.Precision < 0 || m.Precision > 1 {
					t.Errorf("%s/%s/%s: precision %.3f", ds, setName, en, m.Precision)
				}
			}
		}
	}
	// The dense induced track cannot vanish from the machine-readable
	// reports: every BENCH_<dataset>.json carries Q4I..Q32I.
	paths, err := WriteRealJSON(t.TempDir(), ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report BenchReport
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if report.Schema != BenchSchema {
			t.Errorf("%s: schema %q, want %q", path, report.Schema, BenchSchema)
		}
		for _, set := range []string{"Q4I", "Q8I", "Q16I", "Q32I"} {
			if len(report.QuerySets[set]) == 0 {
				t.Errorf("%s: dense induced query set %s missing from the report", path, set)
			}
		}
	}
	// Rendering must mention every engine and not panic.
	ev.RenderTableV()
	ev.RenderTableVI()
	ev.RenderTableVII()
	ev.RenderFig2()
	ev.RenderFig3()
	ev.RenderFig4()
	ev.RenderFig5()
	ev.RenderFig6()
	ev.RenderFig7()
	out := buf.String()
	for _, en := range EngineNames {
		if !strings.Contains(out, en) {
			t.Errorf("rendered output lacks engine %s", en)
		}
	}
	for _, want := range []string{"Table V", "Table VI", "Table VII", "Figure 2", "Figure 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output lacks %q", want)
		}
	}
}

// TestRunSyntheticSmoke runs the synthetic study at miniature scale.
func TestRunSyntheticSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	cfg := tinyConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	ev, err := RunSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, axis := range SweepAxes() {
		if len(ev.Cells[axis]) != 5 {
			t.Fatalf("%s: %d cells, want 5", axis, len(ev.Cells[axis]))
		}
	}
	// The feature budget, not the clock, decides which index builds run out:
	// all of them, on every host, except on the sparsest cell.
	for _, axis := range SweepAxes() {
		for i, cell := range ev.Cells[axis] {
			for en, c := range cell.IndexTime {
				if built := axis == AxisDegree && i == 0; c.OOT == built {
					t.Errorf("%s cell %d: %s OOT=%v", axis, i, en, c.OOT)
				}
			}
		}
	}
	// The |Σ|=1 cell must show precision ≈ 1 with all graphs as candidates
	// OR high precision with most graphs matching (the paper: "the
	// algorithms return all data graphs as candidates when there is only
	// one label ... most data graphs contain the query graphs").
	cell := ev.Cells[AxisLabels][0]
	if !cell.Skipped {
		if m, ok := cell.Metrics["CFQL"]; ok && m.Precision < 0.5 {
			t.Errorf("|Σ|=1: CFQL precision %.3f, expect high (most graphs match)", m.Precision)
		}
	}
	ev.RenderTableVIII()
	ev.RenderTableIX()
	ev.RenderFig8()
	ev.RenderFig9()
	out := buf.String()
	for _, want := range []string{"Table VIII", "Table IX", "Figure 8", "Figure 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output lacks %q", want)
		}
	}
}

func TestIndexCellString(t *testing.T) {
	if got := (IndexCell{OOT: true}).String(); got != "OOT" {
		t.Errorf("OOT cell = %q", got)
	}
	if got := (IndexCell{Time: 1500 * time.Millisecond}).String(); got != "1.50s" {
		t.Errorf("1.5s cell = %q", got)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		0:                      "0",
		150 * time.Microsecond: "0.150ms",
		25 * time.Millisecond:  "25.0ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

// TestBuildOptionsPoolGrapesOnly: the paper harness builds GGSX and vcGGSX
// on one worker, as the original does, and the Grapes configurations on
// Config.Workers.
func TestBuildOptionsPoolGrapesOnly(t *testing.T) {
	cfg := Defaults()
	for en, want := range map[string]int{"GGSX": 1, "vcGGSX": 1, "Grapes": cfg.Workers, "vcGrapes": cfg.Workers} {
		if got := cfg.buildOptions(en).Workers; got != want {
			t.Errorf("%s: built on %d workers, want %d", en, got, want)
		}
	}
}
