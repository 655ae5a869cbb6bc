package matching

import "subgraphquery/internal/graph"

// Matcher is a subgraph matching algorithm as the paper classifies it
// (Tables II–III, §III-B): a Filter that builds the candidate vertex sets
// and an Order over the query vertices, both feeding the one backtracking
// search of Enumerate. The preprocessing-enumeration algorithms filter
// jointly; the direct-enumeration ones seed each set on its own. CFQL is
// the recombination the paper derives: CFL's Filter, GraphQL's Order.
type Matcher struct {
	Name   string
	Filter FilterFunc
	Order  OrderFunc
}

type (
	// FilterFunc computes Φ for q against g. With a Scratch in opts the
	// result is owned by it, valid until its next filter call.
	FilterFunc func(q, g *graph.Graph, opts FilterOptions) *Candidates
	// OrderFunc computes a connected matching order over cand. s may be
	// nil; an order taken from it is valid until its next ordering call.
	OrderFunc func(q, g *graph.Graph, cand *Candidates, s *Scratch) []graph.VertexID
)

// The catalogue. VF2 and TurboIso are not in it: they run their own search.
var (
	// CFL [1]: CPI-style filter along a BFS tree, path-based order.
	CFL = Matcher{Name: "CFL", Filter: CFLFilter, Order: CFLOrderScratch}
	// GraphQL [14]: profile + pseudo-isomorphism filter, join-based order.
	GraphQL = Matcher{Name: "GraphQL", Filter: GraphQLFilter, Order: JoinOrder}
	// CFQL (§III-B): CFL's Filter with GraphQL's ordering and enumeration.
	CFQL = Matcher{Name: "CFQL", Filter: CFLFilter, Order: JoinOrder}
	// Ullmann [32]: label-and-degree seeds refined to a fixpoint, matched
	// in query vertex id order.
	Ullmann = Matcher{Name: "Ullmann", Filter: ullmannFilter, Order: idOrder}
	// QuickSI [28]: unrefined label-and-degree seeds, infrequent-first
	// QI-sequence.
	QuickSI = Matcher{Name: "QuickSI", Filter: labelDegreeFilter, Order: qiOrder}
	// SPath [41]: seeds that pass the distance-2 neighborhood signature,
	// extended fewest-candidates-first.
	SPath = Matcher{Name: "SPath", Filter: spathFilter, Order: JoinOrder}

	// Matchers lists the catalogue, for the tests that range over it.
	Matchers = []Matcher{CFL, GraphQL, CFQL, Ullmann, QuickSI, SPath}
)

// Run enumerates the subgraph isomorphisms from q to g under opts: Filter,
// then Enumerate along Order unless the filter already decided the pair.
func (m Matcher) Run(q, g *graph.Graph, opts Options) Result {
	if q.NumVertices() == 0 {
		return Result{Embeddings: 1}
	}
	if q.NumVertices() > g.NumVertices() || q.NumEdges() > g.NumEdges() {
		return Result{}
	}
	cand := m.Filter(q, g, FilterOptions{Deadline: opts.Deadline, Cancel: opts.Cancel, Scratch: opts.Scratch})
	if cand.Aborted {
		return Result{Aborted: true}
	}
	if cand.AnyEmpty() {
		return Result{}
	}
	res, err := Enumerate(q, g, cand, m.Order(q, g, cand, opts.Scratch), opts)
	if err != nil {
		panic(err) // every catalogue order is connected for a connected query
	}
	return res
}

// FindFirst stops at the first embedding: the subgraph isomorphism test.
func (m Matcher) FindFirst(q, g *graph.Graph, opts Options) Result {
	opts.Limit = 1
	return m.Run(q, g, opts)
}

// JoinOrder is GraphQLOrderScratch as an OrderFunc.
func JoinOrder(q, _ *graph.Graph, cand *Candidates, s *Scratch) []graph.VertexID {
	return GraphQLOrderScratch(q, cand, s)
}

// seedCandidates is the candidate generation of the direct-enumeration
// family: Φ(u) holds the data vertices with u's label and at least its
// degree that admit accepts (nil accepts all), each decided on its own. It
// stops at the first empty set.
func seedCandidates(q, g *graph.Graph, admit func(u, v graph.VertexID) bool) *Candidates {
	cand := NewCandidates(q.NumVertices(), g.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		uu := graph.VertexID(u)
		for _, v := range g.LabeledVertices(q.Label(uu)) {
			if g.Degree(v) >= q.Degree(uu) && (admit == nil || admit(uu, v)) {
				cand.Add(uu, v)
			}
		}
		if cand.Count(uu) == 0 {
			break
		}
	}
	return cand
}

func labelDegreeFilter(q, g *graph.Graph, _ FilterOptions) *Candidates {
	return seedCandidates(q, g, nil)
}
