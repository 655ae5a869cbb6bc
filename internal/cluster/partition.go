package cluster

import (
	"subgraphquery/internal/graph"
	"subgraphquery/internal/telemetry"
)

// graphKey is the per-graph hash key the partition rendezvous on: the
// renumbering-invariant content fingerprint (telemetry.Compute) mixed
// with the graph's database position, so duplicate graphs — common in
// chemical datasets — still spread across shards instead of piling onto
// one.
func graphKey(db *graph.Database, id int) uint64 {
	return mix64(uint64(telemetry.Compute(db.Graph(id))) + uint64(id)*0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rendezvous scores (key, shard) pairs; the shard with the highest score
// wins the graph. Adding a shard can only win graphs away, never reshuffle
// losers among themselves — the classic HRW stability argument.
func rendezvous(key uint64, shard int) uint64 {
	return mix64(key ^ mix64(uint64(shard)+0x517cc1b727220a95))
}

// partition assigns every graph of db to one of n >= 1 shards by
// rendezvous (highest-random-weight) hashing over its graphKey, returning
// one shard in [0, n) per graph id. It is a function of graph content and
// database position, never of vertex numbering, so two replicas
// partitioning the same database agree, and reloading re-serialized
// graphs reproduces the same partition. The partition is balanced in
// count, oblivious to graph sizes, and minimally disruptive under
// rebalancing: growing n shards to n+1 moves only the graphs whose new
// shard out-scores every old one — 1/(n+1) of the database in
// expectation, never a full reshuffle as modulo hashing would.
func partition(db *graph.Database, n int) []int {
	part := make([]int, db.Len())
	for id := range part {
		key := graphKey(db, id)
		best, bestScore := 0, rendezvous(key, 0)
		for s := 1; s < n; s++ {
			if score := rendezvous(key, s); score > bestScore {
				best, bestScore = s, score
			}
		}
		part[id] = best
	}
	return part
}

// groupByShard inverts a partition into per-shard ascending global-id
// lists; every shard gets an entry, possibly empty.
func groupByShard(part []int, n int) [][]int {
	groups := make([][]int, n)
	for id, s := range part {
		groups[s] = append(groups[s], id)
	}
	return groups
}
