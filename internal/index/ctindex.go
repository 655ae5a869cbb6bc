package index

import (
	"time"

	"math/bits"
	"sort"
	"strconv"
	"strings"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// CTIndex is the fingerprint index of Klein, Kriege and Mutzel [20]:
// every tree subgraph of up to ctMaxTreeEdges edges and every simple cycle
// of up to ctMaxCycleLength edges is enumerated, canonicalized, and hashed
// into a fixed-width bit fingerprint per data graph. A data graph is a
// candidate iff its fingerprint has every bit of the query's fingerprint
// set.
//
// Tree and cycle enumeration is far more expensive than path enumeration —
// the reason CT-Index's indexing time dwarfs Grapes/GGSX in Table VI and
// runs out of time (OOT) on dense or large datasets in Table VIII. Build
// honors the BuildOptions budget so the harness can report OOT.
type CTIndex struct {
	fingerprints [][]uint64
}

// The paper's CT-Index configuration: trees and cycles of up to 4 edges,
// 4096-bit fingerprints.
const (
	ctMaxTreeEdges    = 4
	ctMaxCycleLength  = 4
	ctFingerprintBits = 4096
	ctWords           = ctFingerprintBits / 64
)

// Name implements Index.
func (*CTIndex) Name() string { return "CT-Index" }

// Build implements Index.
func (ix *CTIndex) Build(db *graph.Database, opts BuildOptions) error {
	ix.fingerprints = make([][]uint64, db.Len())
	var spent int64
	check := opts.checkpoint()
	for gid := 0; gid < db.Len(); gid++ {
		fp, err := ix.fingerprint(db.Graph(gid), &spent, &check, opts)
		if err != nil {
			ix.fingerprints = nil
			return err
		}
		ix.fingerprints[gid] = fp
	}
	return nil
}

// fingerprint enumerates g's tree and cycle features into a fresh bit
// fingerprint, spending from the shared feature budget and ticking the
// shared deadline/cancellation checkpoint.
func (ix *CTIndex) fingerprint(g *graph.Graph, spent *int64, check *budget.Checkpoint, opts BuildOptions) ([]uint64, error) {
	fp := make([]uint64, ctWords)
	spend := func() bool {
		*spent++
		if opts.MaxFeatures > 0 && *spent > opts.MaxFeatures {
			return false
		}
		return !check.Tick()
	}
	if !ix.enumerateTrees(g, fp, spend) {
		return nil, ErrBudget
	}
	if !ix.enumerateCycles(g, fp, spend) {
		return nil, ErrBudget
	}
	return fp, nil
}

// setFeature hashes a canonical feature code into the fingerprint with two
// hash positions, Bloom-filter style: FNV-1a of the code, and of the code
// followed by two salt bytes.
func setFeature(fp []uint64, code string) {
	const offset, prime = 14695981039346656037, 1099511628211
	a := uint64(offset)
	for i := 0; i < len(code); i++ {
		a = (a ^ uint64(code[i])) * prime
	}
	b := (a ^ 0x9e) * prime
	b = (b ^ 0x37) * prime
	for _, h := range [2]uint64{a % ctFingerprintBits, b % ctFingerprintBits} {
		fp[h>>6] |= 1 << (h & 63)
	}
}

// enumerateTrees sets the fingerprint bits of every tree subgraph of g.
func (ix *CTIndex) enumerateTrees(g *graph.Graph, fp []uint64, spend func() bool) bool {
	return enumerateTreeCodes(g, ctMaxTreeEdges, func(code string) bool {
		if !spend() {
			return false
		}
		setFeature(fp, code)
		return true
	})
}

// enumerateTreeCodes visits the AHU canonical code of every tree subgraph
// of g with at most maxE edges, each subtree once: from its smallest vertex,
// by taking the frontier edges — those leaving the tree for a vertex above
// the root — in the order they joined the frontier, an edge passed over
// never taken again on that branch. It returns false if the visitor
// aborted. Shared by CT-Index and the mining-based tree index.
func enumerateTreeCodes(g *graph.Graph, maxE int, visit func(code string) bool) bool {
	inTree := make([]bool, g.NumVertices())
	verts := make([]graph.VertexID, 0, maxE+1)
	edges := make([]graph.Edge, 0, maxE)
	var frontier []graph.Edge

	var grow func(from int) bool
	grow = func(from int) bool {
		if !visit(treeCode(g, verts, edges)) {
			return false
		}
		if len(edges) == maxE {
			return true
		}
		for i := from; i < len(frontier); i++ {
			e := frontier[i]
			if inTree[e.V] {
				continue // reached over another edge since: it would close a cycle
			}
			mark := len(frontier)
			inTree[e.V] = true
			verts = append(verts, e.V)
			edges = append(edges, e)
			for _, w := range g.Neighbors(e.V) {
				if w > verts[0] && !inTree[w] {
					frontier = append(frontier, graph.Edge{U: e.V, V: w})
				}
			}
			ok := grow(i + 1)
			frontier = frontier[:mark]
			inTree[e.V] = false
			verts = verts[:len(verts)-1]
			edges = edges[:len(edges)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for v := 0; v < g.NumVertices(); v++ {
		root := graph.VertexID(v)
		inTree[root] = true
		verts = append(verts[:0], root)
		frontier = frontier[:0]
		for _, w := range g.Neighbors(root) {
			if w > root {
				frontier = append(frontier, graph.Edge{U: root, V: w})
			}
		}
		ok := grow(0)
		inTree[root] = false
		if !ok {
			return false
		}
	}
	return true
}

// treeCode returns the AHU canonical string of the labeled tree: the
// minimum over all roots of the rooted canonical encoding.
func treeCode(g *graph.Graph, verts []graph.VertexID, edges []graph.Edge) string {
	if len(verts) == 1 {
		return "T" + strconv.FormatUint(uint64(g.Label(verts[0])), 36)
	}
	adj := make(map[graph.VertexID][]graph.VertexID, len(verts))
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	var encode func(v, parent graph.VertexID) string
	encode = func(v, parent graph.VertexID) string {
		var parts []string
		for _, w := range adj[v] {
			if w != parent {
				parts = append(parts, encode(w, v))
			}
		}
		sort.Strings(parts)
		var b strings.Builder
		b.WriteByte('(')
		b.WriteString(strconv.FormatUint(uint64(g.Label(v)), 36))
		for _, p := range parts {
			b.WriteString(p)
		}
		b.WriteByte(')')
		return b.String()
	}
	best := ""
	for _, r := range verts {
		c := encode(r, r)
		if best == "" || c < best {
			best = c
		}
	}
	return "T" + best
}

// enumerateCycles finds every simple cycle of length 3..maxCycle edges.
// Cycles are discovered from their minimum-id vertex with a direction
// constraint, so each cycle is reported once.
func (ix *CTIndex) enumerateCycles(g *graph.Graph, fp []uint64, spend func() bool) bool {
	const maxLen = ctMaxCycleLength
	onPath := make([]bool, g.NumVertices())
	path := make([]graph.VertexID, 0, maxLen)

	var dfs func(start, v graph.VertexID) bool
	dfs = func(start, v graph.VertexID) bool {
		for _, w := range g.Neighbors(v) {
			if w == start && len(path) >= 3 {
				// Direction dedup: second path vertex must be smaller than
				// the last.
				if path[1] < path[len(path)-1] {
					if !spend() {
						return false
					}
					setFeature(fp, cycleCode(g, path))
				}
				continue
			}
			if w <= start || onPath[w] || len(path) == maxLen {
				continue
			}
			onPath[w] = true
			path = append(path, w)
			ok := dfs(start, w)
			onPath[w] = false
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for v := 0; v < g.NumVertices(); v++ {
		vv := graph.VertexID(v)
		onPath[vv] = true
		path = append(path[:0], vv)
		ok := dfs(vv, vv)
		onPath[vv] = false
		if !ok {
			return false
		}
	}
	return true
}

// cycleCode returns the canonical label sequence of the cycle: the
// lexicographically minimal rotation over both directions.
func cycleCode(g *graph.Graph, cycle []graph.VertexID) string {
	n := len(cycle)
	labels := make([]string, n)
	for i, v := range cycle {
		labels[i] = strconv.FormatUint(uint64(g.Label(v)), 36)
	}
	best := ""
	for dir := 0; dir < 2; dir++ {
		for s := 0; s < n; s++ {
			var b strings.Builder
			for k := 0; k < n; k++ {
				i := (s + k) % n
				if dir == 1 {
					i = ((s-k)%n + n) % n
				}
				b.WriteString(labels[i])
				b.WriteByte(',')
			}
			if c := b.String(); best == "" || c < best {
				best = c
			}
		}
	}
	return "C" + best
}

// Filter implements Index: fingerprint subset test against every graph.
func (ix *CTIndex) Filter(q *graph.Graph) []int { //sqlint:ignore ctxbudget probe cost is bounded by the built fingerprint set, not the data graphs
	return ix.FilterExplain(q, nil)
}

// FilterExplain implements Explainable: Filter plus a per-probe report of
// the query fingerprint density (features enumerated, bits set) and the
// bitmask-subset survivors.
func (ix *CTIndex) FilterExplain(q *graph.Graph, ex *obs.Explain) []int {
	fault.Inject(fault.PointIndexProbe)
	var t0 time.Time
	if ex != nil {
		t0 = time.Now()
	}
	probe := obs.IndexProbe{Index: "CT-Index"}
	if ix.fingerprints == nil {
		finishProbe(ex, &probe, t0)
		return nil
	}
	var spent int64
	var check budget.Checkpoint
	fq, err := ix.fingerprint(q, &spent, &check, BuildOptions{})
	if err != nil {
		finishProbe(ex, &probe, t0)
		return nil
	}
	// budget counted every tree and cycle feature the query enumerated.
	probe.Features = int(spent)
	for _, w := range fq {
		probe.FingerprintBits += bits.OnesCount64(w)
	}
	var out []int
	for gid, fg := range ix.fingerprints {
		subset := true
		for w := range fq {
			if fq[w]&^fg[w] != 0 {
				subset = false
				break
			}
		}
		if subset {
			out = append(out, gid)
		}
	}
	probe.Survivors = len(out)
	finishProbe(ex, &probe, t0)
	return out
}

// MemoryFootprint implements Index: one fingerprint per graph.
func (ix *CTIndex) MemoryFootprint() int64 {
	return int64(len(ix.fingerprints)) * (ctWords*8 + 24)
}
