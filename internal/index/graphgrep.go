package index

import (
	"hash/fnv"

	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
)

// GraphGrep (Shasha, Wang and Giugno [30]) — the ancestor of Grapes and
// GGSX in Table II: path features hashed into a fixed-width table of
// occurrence counts per graph ("fingerprint"). Hash collisions merge
// feature counts, which stays complete: if q ⊆ G then for every bucket b,
// Σ_{f∈b} count_q(f) ≤ Σ_{f∈b} count_G(f), so comparing bucket counts
// never rejects a true answer. Collisions only cost precision — the reason
// its successors moved to exact tries and suffix trees.
type GraphGrep struct {
	tables []map[uint32]int32 // per graph: bucket -> count
}

// graphGrepBuckets is the fingerprint width.
const graphGrepBuckets = 4096

// Name implements Index.
func (*GraphGrep) Name() string { return "GraphGrep" }

// Build implements Index.
func (ix *GraphGrep) Build(db *graph.Database, opts BuildOptions) error {
	ix.tables = make([]map[uint32]int32, db.Len())
	var features int64
	check := opts.checkpoint()
	for gid := 0; gid < db.Len(); gid++ {
		table := make(map[uint32]int32)
		ok := enumeratePaths(db.Graph(gid), DefaultMaxPathLength, func(labels []graph.Label) bool {
			table[pathBucket(labels)]++
			features++
			if check.Tick() {
				return false
			}
			return opts.MaxFeatures <= 0 || features <= opts.MaxFeatures
		})
		if !ok {
			ix.tables = nil
			return ErrBudget
		}
		ix.tables[gid] = table
	}
	return nil
}

// pathBucket hashes a label sequence to its fingerprint bucket.
func pathBucket(labels []graph.Label) uint32 {
	h := fnv.New32a()
	var buf [4]byte
	for _, l := range labels {
		buf[0], buf[1], buf[2], buf[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
		h.Write(buf[:])
	}
	return h.Sum32() % graphGrepBuckets
}

// Filter implements Index.
func (ix *GraphGrep) Filter(q *graph.Graph) []int { //sqlint:ignore ctxbudget probe cost is bounded by the built hash tables, not the data graphs
	fault.Inject(fault.PointIndexProbe)
	if ix.tables == nil {
		return nil
	}
	need := make(map[uint32]int32)
	enumeratePaths(q, DefaultMaxPathLength, func(labels []graph.Label) bool {
		need[pathBucket(labels)]++
		return true
	})
	var out []int
	for gid, table := range ix.tables {
		pass := true
		for b, c := range need {
			if table[b] < c {
				pass = false
				break
			}
		}
		if pass {
			out = append(out, gid)
		}
	}
	return out
}

// MemoryFootprint implements Index.
func (ix *GraphGrep) MemoryFootprint() int64 {
	var b int64
	for _, t := range ix.tables {
		b += 48 + int64(len(t))*16
	}
	return b
}
