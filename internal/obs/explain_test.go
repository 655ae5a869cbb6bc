package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestExplainNilIsSafe(t *testing.T) {
	var ex *Explain
	ex.ObserveStage(StageCFLLDF, []int{1, 2})
	ex.ObserveStageDense(StageCFLTopDown, []int{1}, 50)
	ex.ObservePrefilter(true)
	ex.ObserveDomainRep(1, 2, 3)
	ex.ObserveEnumerate(1, 2, 3, 4, 5, 6)
	ex.ObserveRefineRounds(3)
	ex.ObserveRejections(7)
	ex.ObserveIndexProbe(IndexProbe{Index: "Grapes"})
	ex.ObserveOrder([]OrderStep{{Vertex: 0, Candidates: 1}})
	ex.SetEngine("CFQL")
	s := ex.Snapshot()
	if s.Engine != "" || len(s.Stages) != 0 || len(s.IndexProbes) != 0 {
		t.Fatalf("nil Explain snapshot not empty: %+v", s)
	}
}

// TestExplainNilAllocFree pins the acceptance criterion that the disabled
// hot path allocates nothing: every recording method on a nil *Explain must
// run without a single allocation.
func TestExplainNilAllocFree(t *testing.T) {
	var ex *Explain
	counts := []int{3, 1, 4}
	probe := IndexProbe{Index: "Grapes", Features: 5}
	steps := []OrderStep{{Vertex: 0, Candidates: 2}}
	allocs := testing.AllocsPerRun(200, func() {
		ex.ObserveStage(StageCFLTopDown, counts)
		ex.ObservePrefilter(false)
		ex.ObserveDomainRep(1, 1, 1)
		ex.ObserveEnumerate(1, 1, 1, 1, 1, 1)
		ex.ObserveRefineRounds(2)
		ex.ObserveRejections(9)
		ex.ObserveIndexProbe(probe)
		ex.ObserveOrder(steps)
		ex.SetEngine("CFL")
	})
	if allocs != 0 {
		t.Fatalf("nil Explain allocated %.1f times per run, want 0", allocs)
	}
}

func TestExplainStageAggregation(t *testing.T) {
	ex := NewExplain()
	ex.ObserveStage(StageCFLLDF, []int{4, 6})
	ex.ObserveStage(StageCFLLDF, []int{2, 0}) // pruned: a zero count
	ex.ObserveStage(StageCFLTopDown, []int{3, 5})

	s := ex.Snapshot()
	if len(s.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(s.Stages))
	}
	ldf := s.Stages[0]
	if ldf.Name != StageCFLLDF {
		t.Fatalf("stage order: first stage is %q, want %q", ldf.Name, StageCFLLDF)
	}
	if ldf.Graphs != 2 || ldf.Pruned != 1 {
		t.Fatalf("ldf graphs=%d pruned=%d, want 2 and 1", ldf.Graphs, ldf.Pruned)
	}
	if ldf.SumPerVertex[0] != 6 || ldf.SumPerVertex[1] != 6 {
		t.Fatalf("ldf sums = %v, want [6 6]", ldf.SumPerVertex)
	}
	mean := ldf.MeanPerVertex()
	if mean[0] != 3 || mean[1] != 3 {
		t.Fatalf("ldf means = %v, want [3 3]", mean)
	}
}

func TestExplainDensityPrefilterDomainEnumerate(t *testing.T) {
	ex := NewExplain()
	ex.ObservePrefilter(true)
	ex.ObservePrefilter(false)
	ex.ObservePrefilter(false)
	ex.ObserveStageDense(StageCFLTopDown, []int{10, 30}, 100)
	ex.ObserveStageDense(StageCFLTopDown, []int{20, 20}, 100)
	ex.ObserveDomainRep(0, 3, 1)
	ex.ObserveDomainRep(0, 0, 0) // no-op: nothing generated
	ex.ObserveDomainRep(0, 0, 2)
	ex.ObserveDomainRep(6, 0, 0) // a graph of at most 64 vertices
	ex.ObserveEnumerate(2, 5, 4, 0, 7, 11)
	ex.ObserveEnumerate(0, 0, 6, 13, 1, 0)

	s := ex.Snapshot()
	if s.Prefilter == nil || s.Prefilter.Graphs != 3 || s.Prefilter.Pruned != 1 {
		t.Fatalf("prefilter = %+v, want graphs=3 pruned=1", s.Prefilter)
	}
	st := s.Stages[0]
	if st.NDataSum != 200 {
		t.Fatalf("NDataSum = %d, want 200", st.NDataSum)
	}
	// (10+20+30+20)/2 vertices / 200 data vertices = 0.2
	if d := st.MeanDensity(); d != 0.2 {
		t.Fatalf("MeanDensity = %v, want 0.2", d)
	}
	if s.DomainRep == nil || s.DomainRep.WordVertices != 6 || s.DomainRep.BitsVertices != 3 || s.DomainRep.ChainVertices != 3 {
		t.Fatalf("domain rep = %+v, want words=6 bits=3 chains=3", s.DomainRep)
	}
	e := s.Enumerate
	if e == nil || e.Enumerations != 2 || e.Jumps != 2 || e.Redos != 5 || e.Pruned != 10 ||
		e.WordIntersections != 13 || e.ProbeIntersections != 8 || e.MergeIntersections != 11 {
		t.Fatalf("enumerate = %+v, want 2 runs jumps=2 redos=5 pruned=10 word=13 probe=8 merge=11", e)
	}

	// Counts-only stages report no density.
	ex2 := NewExplain()
	ex2.ObserveStage(StageCFLLDF, []int{5})
	if d := ex2.Snapshot().Stages[0].MeanDensity(); d != 0 {
		t.Fatalf("density without nData = %v, want 0", d)
	}
}

func TestExplainWriteTextNewSections(t *testing.T) {
	ex := NewExplain()
	ex.SetEngine("CFQL")
	ex.ObservePrefilter(true)
	ex.ObservePrefilter(false)
	ex.ObserveStageDense(StageCFLTopDown, []int{25, 75}, 1000)
	ex.ObserveDomainRep(7, 4, 2)
	ex.ObserveEnumerate(3, 9, 6, 55, 100, 40)

	var b strings.Builder
	ex.Snapshot().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"prefilter (label-pair): 1/2 graphs pruned",
		"density",
		"0.0500", // (25+75)/2 / 1000
		"domain representation: 7 query vertices on words, 4 on bit rows, 2 on chains",
		"enumeration: 1 runs, 3 backjumps of 9 dead ends, 6 look-ahead skips, 55 word / 100 probe / 40 merge intersections",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRefineAndRejections(t *testing.T) {
	ex := NewExplain()
	ex.ObserveRefineRounds(2)
	ex.ObserveRefineRounds(5)
	ex.ObserveRejections(10)
	ex.ObserveRejections(0) // no-op
	ex.ObserveRejections(3)

	s := ex.Snapshot()
	if s.RefineRounds == nil {
		t.Fatal("RefineRounds missing")
	}
	if s.RefineRounds.Graphs != 2 || s.RefineRounds.Total != 7 || s.RefineRounds.Max != 5 {
		t.Fatalf("refine = %+v, want graphs=2 total=7 max=5", s.RefineRounds)
	}
	if s.SemiPerfectRejections != 13 {
		t.Fatalf("rejections = %d, want 13", s.SemiPerfectRejections)
	}
}

func TestExplainProbeBounds(t *testing.T) {
	ex := NewExplain()
	long := make([]int, maxIntersectionSizes+10)
	for i := 0; i < maxExplainProbes+4; i++ {
		ex.ObserveIndexProbe(IndexProbe{Index: "Grapes", IntersectionSizes: long})
	}
	s := ex.Snapshot()
	if len(s.IndexProbes) != maxExplainProbes {
		t.Fatalf("kept %d probes, want %d", len(s.IndexProbes), maxExplainProbes)
	}
	if s.IndexProbesDropped != 4 {
		t.Fatalf("dropped = %d, want 4", s.IndexProbesDropped)
	}
	if n := len(s.IndexProbes[0].IntersectionSizes); n != maxIntersectionSizes {
		t.Fatalf("intersection sizes capped at %d, want %d", n, maxIntersectionSizes)
	}
}

func TestExplainOrderFirstKeptVariationFlagged(t *testing.T) {
	ex := NewExplain()
	ex.ObserveOrder([]OrderStep{{Vertex: 1, Candidates: 2}, {Vertex: 0, Candidates: 9}})
	ex.ObserveOrder([]OrderStep{{Vertex: 1, Candidates: 4}, {Vertex: 0, Candidates: 3}}) // same order
	s := ex.Snapshot()
	if s.OrdersSeen != 2 || s.OrderVaried {
		t.Fatalf("seen=%d varied=%v, want 2 and false", s.OrdersSeen, s.OrderVaried)
	}
	if s.Order[0].Vertex != 1 || s.Order[0].Candidates != 2 {
		t.Fatalf("first order not retained verbatim: %+v", s.Order)
	}

	ex.ObserveOrder([]OrderStep{{Vertex: 0, Candidates: 1}, {Vertex: 1, Candidates: 1}})
	s = ex.Snapshot()
	if !s.OrderVaried {
		t.Fatal("differing order not flagged")
	}
}

func TestExplainConcurrentRecording(t *testing.T) {
	ex := NewExplain()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ex.ObserveStage(StageCFLTopDown, []int{1, 2, 3})
				ex.ObserveRefineRounds(1)
				ex.ObserveRejections(1)
				ex.ObserveOrder([]OrderStep{{Vertex: 0, Candidates: 1}})
			}
		}()
	}
	wg.Wait()
	s := ex.Snapshot()
	if s.Stages[0].Graphs != 800 {
		t.Fatalf("graphs = %d, want 800", s.Stages[0].Graphs)
	}
	if s.SemiPerfectRejections != 800 || s.OrdersSeen != 800 {
		t.Fatalf("rejections=%d orders=%d, want 800 each", s.SemiPerfectRejections, s.OrdersSeen)
	}
}

func TestExplainWriteText(t *testing.T) {
	ex := NewExplain()
	ex.SetEngine("CFQL")
	ex.ObserveStage(StageCFLLDF, []int{8, 12})
	ex.ObserveStage(StageCFLTopDown, []int{4, 6})
	ex.ObserveStage(StageCFLBottomUp, []int{3, 5})
	ex.ObserveIndexProbe(IndexProbe{Index: "Grapes", Features: 7, NodesVisited: 21, IntersectionSizes: []int{9, 4, 2}, Survivors: 2, DurationUS: 120})
	ex.ObserveOrder([]OrderStep{{Vertex: 1, Candidates: 3}, {Vertex: 0, Candidates: 5}})

	var b strings.Builder
	ex.Snapshot().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"EXPLAIN engine=CFQL",
		StageCFLLDF, StageCFLTopDown, StageCFLBottomUp,
		"Grapes", "nodes=21", "survivors=2",
		"intersections [9 4 2]",
		"u1(3)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainWriteTextStageOrder pins the stage-table row ordering: stages
// render in first-emission order — the candidate pipeline's own order —
// regardless of how later graphs interleave their emissions.
func TestExplainWriteTextStageOrder(t *testing.T) {
	ex := NewExplain()
	ex.SetEngine("CFQL")
	// Graph 1 runs the full pipeline.
	ex.ObserveStage(StageCFLLDF, []int{8})
	ex.ObserveStage(StageCFLTopDown, []int{4})
	ex.ObserveStage(StageCFLBottomUp, []int{3})
	// Graph 2 is pruned after the top-down pass; graph 3 re-emits every
	// stage. Neither may reorder the table.
	ex.ObserveStage(StageCFLLDF, []int{9})
	ex.ObserveStage(StageCFLTopDown, []int{0})
	ex.ObserveStage(StageCFLBottomUp, []int{2})
	ex.ObserveStage(StageCFLTopDown, []int{1})
	ex.ObserveStage(StageCFLLDF, []int{7})

	var b strings.Builder
	ex.Snapshot().WriteText(&b)
	out := b.String()
	prev := -1
	for _, stage := range []string{StageCFLLDF, StageCFLTopDown, StageCFLBottomUp} {
		at := strings.Index(out, stage)
		if at < 0 {
			t.Fatalf("stage %q missing from table:\n%s", stage, out)
		}
		if at < prev {
			t.Fatalf("stage %q rendered out of pipeline order:\n%s", stage, out)
		}
		prev = at
	}
}
