package index

import (
	"subgraphquery/internal/budget"
	"subgraphquery/internal/graph"
)

// Appender is implemented by indexes that can absorb one appended data
// graph without a rebuild — the incremental maintenance whose absence in
// most IFV systems the paper cites as a core limitation (§I, [39]). The
// enumeration-based indexes support it naturally: the new graph's features
// are enumerated and inserted; existing entries never change because
// posting lists are per-graph. Mining-based indexes (gIndex) do not — their
// feature selection depends on global supports.
type Appender interface {
	// InsertGraph indexes g under the id gid. gid must be larger than
	// every previously indexed id (append-only), keeping posting lists
	// sorted.
	InsertGraph(g *graph.Graph, gid int) error
}

// InsertGraph implements Appender for GraphGrep's hash fingerprints.
func (ix *GraphGrep) InsertGraph(g *graph.Graph, gid int) error {
	table := make(map[uint32]int32)
	enumeratePaths(g, DefaultMaxPathLength, func(labels []graph.Label) bool {
		table[pathBucket(labels)]++
		return true
	})
	for gid >= len(ix.tables) {
		ix.tables = append(ix.tables, map[uint32]int32{})
	}
	ix.tables[gid] = table
	return nil
}

// InsertGraph implements Appender for CT-Index fingerprints.
func (ix *CTIndex) InsertGraph(g *graph.Graph, gid int) error {
	var spent int64
	var check budget.Checkpoint
	fp, err := ix.fingerprint(g, &spent, &check, BuildOptions{})
	if err != nil {
		return err
	}
	for gid >= len(ix.fingerprints) {
		ix.fingerprints = append(ix.fingerprints, make([]uint64, ctWords))
	}
	ix.fingerprints[gid] = fp
	return nil
}
