package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// workload is one traffic mix against one server configuration. Names are
// fixed: BENCHMARK.json and later issues refer to them.
type workload struct {
	name string
	// engine is what sqserver runs (-engine); oracle is a different engine
	// that answers every distinct query in-process before timing.
	engine, oracle string
	// serverFlags are passed to sqserver after -db and -addr. Empty means
	// "what `sqserver -db x` gives a user".
	serverFlags []string
	// rate is the open-loop request rate of the rate phase, fixed at
	// roughly 30 % of the closed-loop capacity of a quiet machine, measured
	// when the benchmark was sized: low enough that a machine running a
	// third slower still serves it without a queue.
	rate float64
	// zipf cycles a block in which the query of rank k appears in proportion
	// to (4+k)^-1.3 (rand.NewZipf's law with s=1.3, v=4) instead of a block
	// holding every query once.
	zipf bool
	// appendEvery makes every n-th operation a POST /graphs; 0 = none.
	appendEvery int

	database func(seed int64, scale float64) (*graph.Database, error)
	// sets lists the query sets (edges, method) and how many of each.
	sets []gen.QuerySetConfig
}

var bareFlags = []string{"-cache", "0", "-slowlog-threshold", "-1s", "-budget", "5s"}

func aidsDB(seed int64, scale float64) (*graph.Database, error) {
	return gen.Real(gen.AIDS, 0.1*scale, seed)
}

func synDB(seed int64, scale float64) (*graph.Database, error) {
	n := int(150 * scale)
	if n < 10 {
		n = 10
	}
	return gen.Synthetic(gen.SyntheticConfig{NumGraphs: n, NumVertices: 60, NumLabels: 3, Degree: 6, Seed: seed})
}

func querySets(count int, method gen.QueryMethod, edges ...int) []gen.QuerySetConfig {
	var sets []gen.QuerySetConfig
	for _, e := range edges {
		sets = append(sets, gen.QuerySetConfig{Count: count, Edges: e, Method: method})
	}
	return sets
}

var aidsSets = append(querySets(50, gen.QueryRandomWalk, 4, 8, 16, 32), querySets(50, gen.QueryBFS, 4, 8, 16, 32)...)

var workloads = []workload{
	{
		// 4000 small label-rich graphs, 400 Q4-Q32 queries, bare CFQL server:
		// the CFL filter and the per-graph loop do most of the work,
		// enumeration and observability almost none.
		name:   "aids-bare",
		engine: "CFQL", oracle: "GraphQL", serverFlags: append([]string{"-engine", "CFQL"}, bareFlags...),
		rate: 110, database: aidsDB, sets: aidsSets,
	},
	{
		// 150 label-poor graphs let nearly every graph through the filter and
		// long sparse queries search deep: matching.Enumerate does most of
		// the work. The control for filter and per-graph-loop changes.
		name:   "syn-enum",
		engine: "CFQL", oracle: "GraphQL", serverFlags: append([]string{"-engine", "CFQL"}, bareFlags...),
		rate: 55, database: synDB, sets: querySets(100, gen.QueryRandomWalk, 16, 24, 32),
	},
	{
		// aids-bare's inputs with Zipf(1.3) repeats against a server with
		// default flags: the 64-entry result cache and the always-on
		// Trace+Explain do the extra work; the gap to aids-bare is the
		// observability-plus-cache ledger.
		name:   "aids-default-hot",
		engine: "CFQL", oracle: "GraphQL", serverFlags: nil,
		rate: 55, zipf: true, database: aidsDB, sets: aidsSets,
	},
	{
		// vcGGSX server with every 25th operation a POST /graphs: the only
		// workload where internal/index works (build in set-up, probe per
		// query, InsertGraph per append under the server-wide write lock).
		name:   "aids-index-append",
		engine: "vcGGSX", oracle: "CFQL", serverFlags: append([]string{"-engine", "vcGGSX"}, bareFlags...),
		rate: 130, appendEvery: 25, database: aidsDB, sets: aidsSets,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opKind says what one operation of the sequence is.
type opKind uint8

const (
	opQuery opKind = iota
	opAppend
)

// op is one operation of the seed-determined sequence both phases follow.
// index is into inputs.queries or inputs.appends.
type op struct {
	kind  opKind
	index int
}

// opSequenceLen is long enough that no phase at any workload's rate wraps
// it on this machine; if one does, the sequence simply repeats.
const opSequenceLen = 1 << 15

// maxAppendGraphs bounds the database growth of the append workload; once
// the pool is used up the sequence carries on with queries only.
const maxAppendGraphs = 600

// inputs is everything one run of one workload feeds the server, made from
// the seed alone.
type inputs struct {
	db      *graph.Database
	dbBytes []byte // text form, written to the file sqserver loads
	queries []*graph.Graph
	bodies  [][]byte // text form of queries, the POST /query bodies
	// answers[i] is the oracle's answer set of queries[i] over db.
	answers [][]int
	appends []*graph.Graph
	// appendBodies are the POST /graphs bodies.
	appendBodies [][]byte
	ops          []op

	genDBSeconds, genQueriesSeconds, oracleSeconds float64
}

// population is the constant the database, the query list and the Zipf
// ranking are made from: they are part of the workload's definition, like a
// standard dataset, so that every seed meets the same distribution of query
// costs. (Made from the seed instead, the mean cost of 400 queries differs by
// 20-30 % from one seed to the next and no run could be compared with
// another.) The seed gives what a run draws from that population: the order
// of the queries, the Zipf draws, the appended graphs.
const population = 1

// generate makes one run's inputs. scale shrinks the database and the query
// list for the smoke test; 1 is the benchmark's size.
func (w workload) generate(seed int64, scale float64) (*inputs, error) {
	in := &inputs{}
	t0 := time.Now()
	db, err := w.database(population, scale)
	if err != nil {
		return nil, fmt.Errorf("generating database: %w", err)
	}
	in.db = db
	var buf bytes.Buffer
	if err := sq.WriteDatabase(&buf, db); err != nil {
		return nil, fmt.Errorf("serializing database: %w", err)
	}
	in.dbBytes = buf.Bytes()
	in.genDBSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	for i, set := range w.sets {
		set.Seed = population*1000 + int64(i)
		set.Count = int(float64(set.Count) * scale)
		if set.Count < 2 {
			set.Count = 2
		}
		qs, err := gen.QuerySet(db, set)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", set.Name(), err)
		}
		in.queries = append(in.queries, qs...)
	}
	// The list's order is the Zipf ranking: shuffled so that rank does not
	// follow query size.
	ranking := rand.New(rand.NewSource(population))
	ranking.Shuffle(len(in.queries), func(i, j int) { in.queries[i], in.queries[j] = in.queries[j], in.queries[i] })
	for _, q := range in.queries {
		in.bodies = append(in.bodies, graphText(q))
	}
	if w.appendEvery > 0 {
		extra, err := gen.Real(gen.AIDS, float64(maxAppendGraphs)/40000, seed+1000)
		if err != nil {
			return nil, fmt.Errorf("generating append graphs: %w", err)
		}
		in.appends = extra.Graphs()
		for _, g := range in.appends {
			in.appendBodies = append(in.appendBodies, graphText(g))
		}
	}
	in.ops = w.sequence(rand.New(rand.NewSource(seed)), len(in.queries), len(in.appends))
	in.genQueriesSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	if in.answers, err = oracleAnswers(w.oracle, db, in.queries); err != nil {
		return nil, err
	}
	in.oracleSeconds = time.Since(t0).Seconds()
	return in, nil
}

// sequence lays out the operations: the workload's block of queries (every
// distinct query once, or a Zipf-distributed block with repeats) is cycled
// in an order shuffled by the seed, and every appendEvery-th slot is an
// append while the pool lasts. A block as long as about one second of
// closed-loop traffic makes every window of a phase hold nearly the same
// multiset of queries, whatever the seed.
func (w workload) sequence(r *rand.Rand, queries, appends int) []op {
	block := make([]int, queries)
	for i := range block {
		block[i] = i
	}
	if w.zipf {
		block = zipfBlock(queries, queries, 1.3, 4)
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	ops := make([]op, 0, opSequenceLen)
	nextQuery, nextAppend := 0, 0
	for i := 0; i < opSequenceLen; i++ {
		if w.appendEvery > 0 && i%w.appendEvery == w.appendEvery-1 && nextAppend < appends {
			ops = append(ops, op{opAppend, nextAppend})
			nextAppend++
			continue
		}
		ops = append(ops, op{opQuery, block[nextQuery%len(block)]})
		nextQuery++
	}
	return ops
}

// zipfBlock returns size query indices in which index k (its rank) appears
// in proportion to (v+k)^-s, the law of rand.NewZipf: the expected counts
// of size draws, rounded by largest remainder so that they sum to size.
// Drawing the sequence at random instead makes the share of cache misses,
// and with it every metric of the workload, differ by a fifth between seeds.
func zipfBlock(queries, size int, s, v float64) []int {
	weights := make([]float64, queries)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(v+float64(k), -s)
		sum += weights[k]
	}
	counts := make([]int, queries)
	byRemainder := make([]int, queries)
	placed := 0
	for k, wk := range weights {
		weights[k] = float64(size) * wk / sum // expected count
		counts[k] = int(weights[k])
		placed += counts[k]
		byRemainder[k] = k
	}
	sort.SliceStable(byRemainder, func(i, j int) bool {
		ki, kj := byRemainder[i], byRemainder[j]
		return weights[ki]-float64(counts[ki]) > weights[kj]-float64(counts[kj])
	})
	for _, k := range byRemainder[:size-placed] {
		counts[k]++
	}
	block := make([]int, 0, size)
	for k, c := range counts {
		for ; c > 0; c-- {
			block = append(block, k)
		}
	}
	return block
}

func graphText(g *graph.Graph) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = sq.WriteGraph(&buf, 0, g)
	return buf.Bytes()
}

// oracleAnswers answers every query in-process with the named engine, on
// as many goroutines as the machine has cores (the engines are safe for
// concurrent queries). The server never runs this engine, so a bug shared
// by filter and oracle would have to live in two implementations.
func oracleAnswers(engine string, db *graph.Database, queries []*graph.Graph) ([][]int, error) {
	e, err := bench.NewEngine(engine)
	if err != nil {
		return nil, err
	}
	if err := e.Build(db, sq.BuildOptions{}); err != nil {
		return nil, fmt.Errorf("building oracle %s: %w", engine, err)
	}
	answers := make([][]int, len(queries))
	errs := make([]error, generatorClients)
	var wg sync.WaitGroup
	for c := 0; c < generatorClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(queries); i += generatorClients {
				res := e.Query(queries[i], sq.QueryOptions{})
				if res.Err != nil || res.TimedOut || res.Skipped > 0 {
					errs[c] = fmt.Errorf("oracle %s failed on query %d", engine, i)
					return
				}
				answers[i] = append([]int{}, res.Answers...)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}
