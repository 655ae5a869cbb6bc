package obs

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"
)

// Explain is a per-query introspection report populated by the filtering
// and index internals as a query runs — the EXPLAIN-ANALYZE counterpart of
// the Trace's timing spans. Where the Trace says *when* time was spent,
// the Explain says *what the pruning machinery did*: per-query-vertex
// candidate counts after each filter stage, index probe statistics (trie
// nodes visited, intersection sizes, fingerprint survivors), refinement
// rounds, pseudo-isomorphism rejections and the chosen matching order.
//
// All methods are safe on a nil *Explain — they become no-ops that
// allocate nothing — so engines thread a possibly-nil pointer through
// QueryOptions unconditionally. Non-nil Explains are safe for concurrent
// use: parallel engines record from worker goroutines.
type Explain struct {
	mu     sync.Mutex
	engine string

	stages  []*stageAgg
	stageIx map[string]int

	refineGraphs int
	refineTotal  int64
	refineMax    int
	rejections   int64

	prefilterGraphs int
	prefilterPruned int

	domainWordVerts  int64
	domainBitsVerts  int64
	domainChainVerts int64

	enumCalls  uint64
	enumJumps  uint64
	enumRedos  uint64
	enumPruned uint64
	enumWord   uint64
	enumProbe  uint64
	enumMerge  uint64

	probes        []IndexProbe
	probesDropped int

	order       []OrderStep
	ordersSeen  int
	orderVaried bool
}

// NewExplain returns an empty report.
func NewExplain() *Explain { return &Explain{} }

// maxExplainProbes bounds retained index probes; vcFV engines emit none,
// IFV/IvcFV engines emit one per query, so the bound only guards misuse.
const maxExplainProbes = 16

// Filter stage names recorded by the matching layer. A stage is one
// pruning pass of a filter; counts are |Φ(u)| per query vertex after the
// pass, recorded once per data graph reaching the stage.
const (
	// StageCFLLDF is CFL's label-and-degree qualification — the raw
	// candidate pool the top-down generation draws from.
	StageCFLLDF = "cfl.ldf"
	// StageCFLTopDown is CFL's top-down generation along the BFS tree with
	// backward pruning over processed neighbors (the CPI construction's
	// first pass; generation and backward pruning are fused per vertex).
	StageCFLTopDown = "cfl.topdown"
	// StageCFLBottomUp is CFL's bottom-up refinement pass.
	StageCFLBottomUp = "cfl.bottomup"
	// StageGraphQLProfile is GraphQL's neighborhood-profile candidate
	// generation.
	StageGraphQLProfile = "graphql.profile"
	// StageGraphQLRefine is GraphQL's pseudo subgraph isomorphism
	// refinement (semi-perfect bipartite matching rounds).
	StageGraphQLRefine = "graphql.refine"
)

// stageAgg aggregates one named stage across the data graphs that reached
// it.
type stageAgg struct {
	name     string
	graphs   int
	pruned   int
	sum      []int64
	nDataSum int64 // Σ |V(G)| over observed graphs: the density denominator
}

// ObserveStage records per-query-vertex candidate counts after one filter
// stage on one data graph. A zero count means the graph was pruned at (or
// before) this stage.
func (e *Explain) ObserveStage(stage string, counts []int) {
	e.ObserveStageDense(stage, counts, 0)
}

// ObserveStageDense is ObserveStage with the data graph's vertex count,
// letting the snapshot report the stage's mean domain density (candidate
// count as a fraction of |V(G)|). nData 0 records counts only.
func (e *Explain) ObserveStageDense(stage string, counts []int, nData int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stageIx == nil {
		e.stageIx = map[string]int{}
	}
	ix, ok := e.stageIx[stage]
	if !ok {
		ix = len(e.stages)
		e.stageIx[stage] = ix
		e.stages = append(e.stages, &stageAgg{name: stage})
	}
	agg := e.stages[ix]
	if len(agg.sum) < len(counts) {
		grown := make([]int64, len(counts))
		copy(grown, agg.sum)
		agg.sum = grown
	}
	agg.graphs++
	agg.nDataSum += int64(nData)
	pruned := false
	for u, c := range counts {
		agg.sum[u] += int64(c)
		if c == 0 {
			pruned = true
		}
	}
	if pruned || len(counts) == 0 {
		agg.pruned++
	}
}

// ObservePrefilter records one data graph passing through the label-pair
// prefilter; pruned reports whether the graph was rejected before any
// per-vertex filtering.
func (e *Explain) ObservePrefilter(pruned bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.prefilterGraphs++
	if pruned {
		e.prefilterPruned++
	}
	e.mu.Unlock()
}

// ObserveDomainRep records, for one data graph, how many query vertices
// the top-down generation handled as single words (a data graph of at most
// 64 vertices), on the packed bit-row path and on the sparse chain path —
// the representation switches' actual behavior.
func (e *Explain) ObserveDomainRep(wordVerts, bitsVerts, chainVerts int) {
	if e == nil || (wordVerts == 0 && bitsVerts == 0 && chainVerts == 0) {
		return
	}
	e.mu.Lock()
	e.domainWordVerts += int64(wordVerts)
	e.domainBitsVerts += int64(bitsVerts)
	e.domainChainVerts += int64(chainVerts)
	e.mu.Unlock()
}

// ObserveEnumerate accumulates one enumeration's backtracking and
// intersection statistics: conflict-directed backjumps taken, dead-end
// backtracks analyzed, candidates the look-ahead skipped, and
// intersections done on single words, by domain-row probing and by sorted
// merge.
func (e *Explain) ObserveEnumerate(jumps, redos, pruned, word, probe, merge uint64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.enumCalls++
	e.enumJumps += jumps
	e.enumRedos += redos
	e.enumPruned += pruned
	e.enumWord += word
	e.enumProbe += probe
	e.enumMerge += merge
	e.mu.Unlock()
}

// ObserveRefineRounds records the number of refinement rounds a filter
// executed on one data graph (GraphQL's bounded pseudo-isomorphism
// iteration).
func (e *Explain) ObserveRefineRounds(rounds int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.refineGraphs++
	e.refineTotal += int64(rounds)
	if rounds > e.refineMax {
		e.refineMax = rounds
	}
	e.mu.Unlock()
}

// ObserveRejections adds n candidate vertices rejected by the pseudo
// subgraph isomorphism test (semi-perfect bipartite matching), batched per
// data graph.
func (e *Explain) ObserveRejections(n int64) {
	if e == nil || n == 0 {
		return
	}
	e.mu.Lock()
	e.rejections += n
	e.mu.Unlock()
}

// IndexProbe reports one index Filter call from the inside: how much of
// the structure the probe walked and how hard each feature pruned.
type IndexProbe struct {
	// Index names the probed structure ("Grapes", "GGSX", "CT-Index",
	// "result-cache", ...).
	Index string `json:"index"`
	// Features is the number of query features probed: for the path tries
	// the distinct paths whose posting lists were intersected — all of the
	// query's for Grapes, for GGSX only the maximal ones, those the query
	// holds no extension of —, enumerated tree/cycle features for CT-Index,
	// cached entries for the result cache.
	Features int `json:"features"`
	// NodesVisited counts the child hops of the trie walk, one per path
	// instance of the query (the walk follows the query's paths depth
	// first, a hop from each path's prefix); 0 for fingerprint indexes.
	NodesVisited int64 `json:"nodes_visited,omitempty"`
	// IntersectionSizes is the candidate-set size after each successive
	// occurrence-list intersection, capped at maxIntersectionSizes — the
	// pruning trajectory of the probe.
	IntersectionSizes []int `json:"intersection_sizes,omitempty"`
	// FingerprintBits is the number of bits set in the query fingerprint
	// (CT-Index only).
	FingerprintBits int `json:"fingerprint_bits,omitempty"`
	// Survivors is |C'(q)|, the candidate count the probe returned.
	Survivors int `json:"survivors"`
	// DurationUS is the probe's wall-clock time.
	DurationUS int64 `json:"duration_us"`
}

// maxIntersectionSizes bounds the recorded pruning trajectory of one
// probe; Features still reports the full count.
const maxIntersectionSizes = 64

// ObserveIndexProbe records one index probe. Retention is bounded; excess
// probes are counted and dropped.
func (e *Explain) ObserveIndexProbe(p IndexProbe) {
	if e == nil {
		return
	}
	if len(p.IntersectionSizes) > maxIntersectionSizes {
		p.IntersectionSizes = p.IntersectionSizes[:maxIntersectionSizes]
	}
	e.mu.Lock()
	if len(e.probes) < maxExplainProbes {
		e.probes = append(e.probes, p)
	} else {
		e.probesDropped++
	}
	e.mu.Unlock()
}

// OrderStep is one position of a matching order: the query vertex and its
// candidate count at ordering time (its selectivity).
type OrderStep struct {
	Vertex     int `json:"vertex"`
	Candidates int `json:"candidates"`
}

// ObserveOrder records the matching order chosen for one candidate data
// graph. The first order is retained verbatim; later orders only bump the
// counter and mark whether any differed (orders are per data graph in the
// vcFV framework).
func (e *Explain) ObserveOrder(steps []OrderStep) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.ordersSeen++
	if e.order == nil {
		e.order = append([]OrderStep(nil), steps...)
	} else if !e.orderVaried && !sameOrder(e.order, steps) {
		e.orderVaried = true
	}
	e.mu.Unlock()
}

func sameOrder(a, b []OrderStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vertex != b[i].Vertex {
			return false
		}
	}
	return true
}

// SetEngine records which engine produced the report. Wrapping engines
// (the result cache) overwrite the inner engine's name after delegating.
func (e *Explain) SetEngine(name string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.engine = name
	e.mu.Unlock()
}

// StageStats is the snapshot of one filter stage.
type StageStats struct {
	Name string `json:"name"`
	// Graphs is the number of data graphs that reached the stage.
	Graphs int `json:"graphs"`
	// Pruned is the number of those graphs left with an empty candidate
	// set — filtered out at this stage.
	Pruned int `json:"pruned"`
	// SumPerVertex[u] sums |Φ(u)| after the stage across all graphs.
	SumPerVertex []int64 `json:"sum_per_vertex,omitempty"`
	// NDataSum sums |V(G)| over the observed graphs (0 when the stage was
	// recorded without density information).
	NDataSum int64 `json:"n_data_sum,omitempty"`
}

// MeanDensity returns the stage's aggregate domain density: total
// candidate count per query vertex as a fraction of total data vertices.
// Zero when no density information was recorded.
func (s StageStats) MeanDensity() float64 {
	if s.NDataSum == 0 || len(s.SumPerVertex) == 0 {
		return 0
	}
	var total int64
	for _, v := range s.SumPerVertex {
		total += v
	}
	return float64(total) / float64(len(s.SumPerVertex)) / float64(s.NDataSum)
}

// PrefilterStats summarizes the label-pair prefilter outcome.
type PrefilterStats struct {
	// Graphs is the number of data graphs checked.
	Graphs int `json:"graphs"`
	// Pruned is how many were rejected before any per-vertex filtering.
	Pruned int `json:"pruned"`
}

// DomainRepStats reports the representation switches' choices during
// top-down candidate generation, in query vertices handled per path.
type DomainRepStats struct {
	WordVertices  int64 `json:"word_vertices"`
	BitsVertices  int64 `json:"bits_vertices"`
	ChainVertices int64 `json:"chain_vertices"`
}

// EnumerateStats aggregates backtracking and intersection behavior across
// the query's enumerations.
type EnumerateStats struct {
	// Enumerations is the number of Enumerate calls observed.
	Enumerations uint64 `json:"enumerations"`
	// Jumps counts conflict-directed backjumps that skipped at least one
	// order position; Redos counts all analyzed dead-end backtracks.
	Jumps uint64 `json:"jumps"`
	Redos uint64 `json:"redos"`
	// Pruned counts candidates the look-ahead skipped.
	Pruned uint64 `json:"pruned"`
	// WordIntersections, ProbeIntersections and MergeIntersections count
	// candidate-set ∩ neighborhood steps by chosen representation.
	WordIntersections  uint64 `json:"word_intersections"`
	ProbeIntersections uint64 `json:"probe_intersections"`
	MergeIntersections uint64 `json:"merge_intersections"`
}

// MeanPerVertex returns SumPerVertex averaged over Graphs (nil when the
// stage saw no graphs).
func (s StageStats) MeanPerVertex() []float64 {
	if s.Graphs == 0 {
		return nil
	}
	out := make([]float64, len(s.SumPerVertex))
	for i, v := range s.SumPerVertex {
		out[i] = float64(v) / float64(s.Graphs)
	}
	return out
}

// RefineStats summarizes the refinement-round distribution.
type RefineStats struct {
	Graphs int   `json:"graphs"`
	Total  int64 `json:"total_rounds"`
	Max    int   `json:"max_rounds"`
}

// ExplainSnapshot is the JSON-marshalable view of an Explain, inlined
// into the /query response under ?explain=1 and rendered by sqquery
// -explain.
type ExplainSnapshot struct {
	Engine string `json:"engine,omitempty"`
	// IndexProbes lists index Filter calls in emission order (IFV/IvcFV
	// engines and the result cache).
	IndexProbes        []IndexProbe `json:"index_probes,omitempty"`
	IndexProbesDropped int          `json:"index_probes_dropped,omitempty"`
	// Stages lists filter stages in first-emission order: the candidate
	// funnel of the vertex-connectivity filters.
	Stages []StageStats `json:"stages,omitempty"`
	// Prefilter summarizes the label-pair compatibility check that can
	// reject a data graph before any per-vertex filtering.
	Prefilter *PrefilterStats `json:"prefilter,omitempty"`
	// DomainRep reports the bit-row vs chain representation choices of the
	// top-down generation.
	DomainRep *DomainRepStats `json:"domain_rep,omitempty"`
	// Enumerate aggregates jump-redo backtracking and intersection
	// representation statistics across the query's enumerations.
	Enumerate *EnumerateStats `json:"enumerate,omitempty"`
	// RefineRounds summarizes GraphQL's pseudo-isomorphism iteration.
	RefineRounds *RefineStats `json:"refine_rounds,omitempty"`
	// SemiPerfectRejections counts candidate vertices rejected by the
	// semi-perfect bipartite matching test.
	SemiPerfectRejections int64 `json:"semi_perfect_rejections,omitempty"`
	// Order is the matching order of the first verified candidate graph
	// with per-vertex selectivity; OrderVaried reports whether later
	// graphs chose a different order.
	Order       []OrderStep `json:"order,omitempty"`
	OrdersSeen  int         `json:"orders_seen,omitempty"`
	OrderVaried bool        `json:"order_varied,omitempty"`
}

// Snapshot copies the report's current contents.
func (e *Explain) Snapshot() ExplainSnapshot {
	if e == nil {
		return ExplainSnapshot{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := ExplainSnapshot{
		Engine:                e.engine,
		IndexProbes:           append([]IndexProbe(nil), e.probes...),
		IndexProbesDropped:    e.probesDropped,
		SemiPerfectRejections: e.rejections,
		Order:                 append([]OrderStep(nil), e.order...),
		OrdersSeen:            e.ordersSeen,
		OrderVaried:           e.orderVaried,
	}
	for _, agg := range e.stages {
		s.Stages = append(s.Stages, StageStats{
			Name:         agg.name,
			Graphs:       agg.graphs,
			Pruned:       agg.pruned,
			SumPerVertex: append([]int64(nil), agg.sum...),
			NDataSum:     agg.nDataSum,
		})
	}
	if e.prefilterGraphs > 0 {
		s.Prefilter = &PrefilterStats{Graphs: e.prefilterGraphs, Pruned: e.prefilterPruned}
	}
	if e.domainWordVerts > 0 || e.domainBitsVerts > 0 || e.domainChainVerts > 0 {
		s.DomainRep = &DomainRepStats{WordVertices: e.domainWordVerts, BitsVertices: e.domainBitsVerts, ChainVertices: e.domainChainVerts}
	}
	if e.enumCalls > 0 {
		s.Enumerate = &EnumerateStats{
			Enumerations:       e.enumCalls,
			Jumps:              e.enumJumps,
			Redos:              e.enumRedos,
			Pruned:             e.enumPruned,
			WordIntersections:  e.enumWord,
			ProbeIntersections: e.enumProbe,
			MergeIntersections: e.enumMerge,
		}
	}
	if e.refineGraphs > 0 {
		s.RefineRounds = &RefineStats{Graphs: e.refineGraphs, Total: e.refineTotal, Max: e.refineMax}
	}
	return s
}

// maxRenderedVertices bounds the per-vertex columns of the text table;
// wider queries elide the tail.
const maxRenderedVertices = 16

// WriteText renders the report as a human-readable plan+stats table — the
// sqquery -explain output.
func (s ExplainSnapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN engine=%s\n", s.Engine)
	if len(s.IndexProbes) > 0 {
		fmt.Fprintln(w, "  index probes:")
		for _, p := range s.IndexProbes {
			fmt.Fprintf(w, "    %-12s features=%d", p.Index, p.Features)
			if p.NodesVisited > 0 {
				fmt.Fprintf(w, " nodes=%d", p.NodesVisited)
			}
			if p.FingerprintBits > 0 {
				fmt.Fprintf(w, " fp_bits=%d", p.FingerprintBits)
			}
			fmt.Fprintf(w, " survivors=%d (%v)\n", p.Survivors,
				(time.Duration(p.DurationUS) * time.Microsecond).Round(time.Microsecond))
			if len(p.IntersectionSizes) > 0 {
				fmt.Fprintf(w, "                 intersections %v\n", p.IntersectionSizes)
			}
		}
		if s.IndexProbesDropped > 0 {
			fmt.Fprintf(w, "    (%d probes dropped)\n", s.IndexProbesDropped)
		}
	}
	if s.Prefilter != nil {
		fmt.Fprintf(w, "  prefilter (label-pair): %d/%d graphs pruned\n",
			s.Prefilter.Pruned, s.Prefilter.Graphs)
	}
	if len(s.Stages) > 0 {
		fmt.Fprintln(w, "  filter stages (mean |C(u)| over graphs reaching the stage):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		nv := 0
		densities := false
		for _, st := range s.Stages {
			if len(st.SumPerVertex) > nv {
				nv = len(st.SumPerVertex)
			}
			if st.NDataSum > 0 {
				densities = true
			}
		}
		shown := nv
		if shown > maxRenderedVertices {
			shown = maxRenderedVertices
		}
		fmt.Fprintf(tw, "    stage\tgraphs\tpruned")
		if densities {
			fmt.Fprintf(tw, "\tdensity")
		}
		for u := 0; u < shown; u++ {
			fmt.Fprintf(tw, "\tu%d", u)
		}
		if shown < nv {
			fmt.Fprintf(tw, "\t…")
		}
		fmt.Fprintln(tw)
		for _, st := range s.Stages {
			fmt.Fprintf(tw, "    %s\t%d\t%d", st.Name, st.Graphs, st.Pruned)
			if densities {
				if st.NDataSum > 0 {
					fmt.Fprintf(tw, "\t%.4f", st.MeanDensity())
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			mean := st.MeanPerVertex()
			for u := 0; u < shown; u++ {
				if u < len(mean) {
					fmt.Fprintf(tw, "\t%.1f", mean[u])
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			if shown < nv {
				fmt.Fprintf(tw, "\t…")
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	if s.DomainRep != nil {
		fmt.Fprintf(w, "  domain representation: %d query vertices on words, %d on bit rows, %d on chains\n",
			s.DomainRep.WordVertices, s.DomainRep.BitsVertices, s.DomainRep.ChainVertices)
	}
	if s.Enumerate != nil {
		fmt.Fprintf(w, "  enumeration: %d runs, %d backjumps of %d dead ends, %d look-ahead skips, %d word / %d probe / %d merge intersections\n",
			s.Enumerate.Enumerations, s.Enumerate.Jumps, s.Enumerate.Redos, s.Enumerate.Pruned,
			s.Enumerate.WordIntersections, s.Enumerate.ProbeIntersections, s.Enumerate.MergeIntersections)
	}
	if s.RefineRounds != nil {
		mean := float64(s.RefineRounds.Total) / float64(s.RefineRounds.Graphs)
		fmt.Fprintf(w, "  refinement: mean %.1f rounds, max %d over %d graphs",
			mean, s.RefineRounds.Max, s.RefineRounds.Graphs)
		if s.SemiPerfectRejections > 0 {
			fmt.Fprintf(w, "; %d semi-perfect rejections", s.SemiPerfectRejections)
		}
		fmt.Fprintln(w)
	} else if s.SemiPerfectRejections > 0 {
		fmt.Fprintf(w, "  semi-perfect rejections: %d\n", s.SemiPerfectRejections)
	}
	if len(s.Order) > 0 {
		fmt.Fprintf(w, "  matching order (first of %d graphs", s.OrdersSeen)
		if s.OrderVaried {
			fmt.Fprintf(w, ", varies per graph")
		}
		fmt.Fprintf(w, "):")
		shown := len(s.Order)
		if shown > maxRenderedVertices {
			shown = maxRenderedVertices
		}
		for _, st := range s.Order[:shown] {
			fmt.Fprintf(w, " u%d(%d)", st.Vertex, st.Candidates)
		}
		if shown < len(s.Order) {
			fmt.Fprintf(w, " …")
		}
		fmt.Fprintln(w)
	}
}
