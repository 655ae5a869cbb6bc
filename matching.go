package subgraphquery

import "subgraphquery/internal/matching"

// Subgraph matching API (Definition II.3): find all subgraphs of a data
// graph isomorphic to the query, not just test containment. This is the
// machinery underneath every engine's verification step, exposed for
// direct use.

// MatchOptions bounds a matching enumeration.
type MatchOptions = matching.Options

// MatchResult reports an enumeration's outcome.
type MatchResult = matching.Result

// Matcher enumerates subgraph isomorphisms from a query to a data graph.
type Matcher interface {
	// Run finds embeddings under the given bounds.
	Run(q, g *Graph, opts MatchOptions) MatchResult
	// FindFirst stops at the first embedding (the subgraph isomorphism
	// test).
	FindFirst(q, g *Graph, opts MatchOptions) MatchResult
}

// NewVF2Matcher returns the VF2 direct-enumeration matcher [6].
func NewVF2Matcher() Matcher { return &matching.VF2{} }

// NewUllmannMatcher returns the Ullmann direct-enumeration matcher [32].
func NewUllmannMatcher() Matcher { return matching.Ullmann }

// NewGraphQLMatcher returns the GraphQL preprocessing-enumeration matcher
// [14].
func NewGraphQLMatcher() Matcher { return matching.GraphQL }

// NewCFLMatcher returns the CFL preprocessing-enumeration matcher [1].
func NewCFLMatcher() Matcher { return matching.CFL }

// NewTurboIsoMatcher returns the TurboIso preprocessing-enumeration
// matcher [11]: candidate-region exploration per start vertex.
func NewTurboIsoMatcher() Matcher { return matching.TurboIso{} }

// NewQuickSIMatcher returns the QuickSI direct-enumeration matcher [28]:
// infrequent-first QI-sequence ordering.
func NewQuickSIMatcher() Matcher { return matching.QuickSI }

// NewSPathMatcher returns the SPath direct-enumeration matcher [41]:
// distance-level neighborhood signature filtering.
func NewSPathMatcher() Matcher { return matching.SPath }

// NewCFQLMatcher returns the hybrid matcher: CFL's filtering, GraphQL's
// ordering and enumeration.
func NewCFQLMatcher() Matcher { return matching.CFQL }

// CountEmbeddings returns the number of subgraph isomorphisms from q to g
// using the CFQL matcher with no bounds. For graphs where the count may be
// astronomically large, use a Matcher with MatchOptions limits instead.
func CountEmbeddings(q, g *Graph) uint64 {
	return matching.CFQL.Run(q, g, matching.Options{}).Embeddings
}

// IsSubgraph reports whether q is subgraph-isomorphic to g
// (Definition II.1).
func IsSubgraph(q, g *Graph) bool {
	return matching.CFQL.FindFirst(q, g, matching.Options{}).Found()
}
