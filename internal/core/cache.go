package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// Result.Cache values: how a Cached engine answered from its result cache.
const (
	// CacheExact marks a repeat of a cached query (up to vertex
	// renumbering): the stored answer set was returned as is.
	CacheExact = "exact"
	// CacheSubgraph marks a containment hit: a cached q' ⊆ q supplied the
	// candidate pool and only that pool was verified.
	CacheSubgraph = "subgraph"
	// CacheMiss marks a query the inner engine answered.
	CacheMiss = "miss"
)

// Cached wraps an engine with a subgraph-query result cache in the spirit
// of GraphCache (Wang, Ntarmos and Triantafillou [33], [34], discussed in
// the paper's §II-B "Other Approaches"). A past answer set serves a later
// query in one of three ways, cheapest first:
//
//   - exact hit: a cached query isomorphic to q has A(q) itself. Entries
//     are keyed by the query's WL fingerprint, which is invariant under
//     vertex renumbering; a key match is confirmed by equal |V|, equal
//     |E| and one embedding of the entry into q. An edge-preserving
//     injection between graphs with the same number of vertices and edges
//     is a bijection on both, hence an isomorphism — so a fingerprint
//     collision can cost a wasted test but never a wrong answer set. The
//     stored answers are copied out; the database is not touched.
//   - subgraph hit: if a cached query q' ⊆ q, then A(q) ⊆ A(q'), so A(q')
//     replaces the database as the candidate pool;
//   - supergraph hit: if a cached query q” ⊇ q, then A(q”) ⊆ A(q), so
//     members of A(q”) in that pool need no verification at all.
//
// Containment probes are subgraph isomorphism tests between *query*
// graphs. They run on a snapshot of the entries taken under the mutex and
// match outside it, so concurrent queries never wait on each other's
// probes; size, edge-count and label-multiset screens reject most entries
// before any matching. The probes share the query's one pooled
// matching.Scratch; the pool is verified by the engines' per-graph loop
// (run.each), on its own.
//
// Admission is TinyLFU's rule (Einziger, Friedman and Manes, ACM ToS
// 2017): every lookup counts one use of its fingerprint, and a full cache
// gives the least-recently-used entry's slot to a new answer set only if
// the new fingerprint has been asked for more often than the victim's — on
// a tie the incumbent stays. So a stream of one-off queries cannot push
// out the repeated ones. Every agingPeriod × capacity lookups all counts
// are halved and zero counts dropped, which lets a new hot set take over
// and bounds the table at 2 × agingPeriod × capacity keys. A query occupies
// at most one slot. Build and AppendGraph bump an epoch; an answer set
// computed under an older epoch is dropped instead of stored, so a query
// that raced a database change cannot publish a stale result.
type Cached struct {
	inner Engine
	name  string
	max   int

	hits, misses       atomic.Int64
	admitted, rejected atomic.Int64
	clock              atomic.Uint64 // LRU time: one tick per entry use

	mu    sync.Mutex
	db    *graph.Database
	epoch uint64
	// entries and the byKey chains are copy-on-write: a slice published
	// here is never written again, so probes may range over a header read
	// under mu after releasing it.
	entries []*cacheEntry
	byKey   map[telemetry.Fingerprint][]*cacheEntry
	// freq counts lookups per fingerprint, halved at every aging (the
	// admission filter); lookups counts them toward the next aging.
	freq    map[telemetry.Fingerprint]uint32
	lookups int
}

// cacheEntry is immutable once published, except for its LRU stamp.
type cacheEntry struct {
	key     telemetry.Fingerprint
	query   *graph.Graph
	labels  []graph.Label // query's vertex labels, ascending (the screen)
	answers []int
	used    atomic.Uint64
}

// cacheView is what one Query sees of the cache: a consistent snapshot of
// the entries, the exact-hit chain of its own key, and the database and
// epoch they belong to.
type cacheView struct {
	entries []*cacheEntry
	chain   []*cacheEntry
	db      *graph.Database
	epoch   uint64
}

// cacheHit is the outcome of one lookup. kind "" is a miss.
type cacheHit struct {
	kind string
	// from holds the answers (exact) or the candidate pool (subgraph).
	from *cacheEntry
	// confirmed is the ascending union of the supergraph hits' answers.
	confirmed []int
}

// probeSteps bounds one query-to-query matching; query graphs are tiny.
const probeSteps = 1 << 16

// agingPeriod is how many lookups per slot pass between two halvings of
// the admission counts. Periods of 8 to 64 give exact-hit shares within
// half a point of each other on BenchmarkCachedZipf.
const agingPeriod = 16

// NewCached wraps inner with a result cache of the given capacity
// (0 selects 64 entries).
func NewCached(inner Engine, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 64
	}
	return &Cached{
		inner: inner,
		name:  inner.Name() + "+cache",
		max:   capacity,
		byKey: map[telemetry.Fingerprint][]*cacheEntry{},
		freq:  map[telemetry.Fingerprint]uint32{},
	}
}

// Name implements Engine.
func (e *Cached) Name() string { return e.name }

// Hits returns how many queries were answered from the cache (exact and
// subgraph hits). Safe for concurrent use.
func (e *Cached) Hits() int { return int(e.hits.Load()) }

// Misses returns how many queries went to the inner engine. Safe for
// concurrent use.
func (e *Cached) Misses() int { return int(e.misses.Load()) }

// Admitted returns how many answer sets were published to the cache. Safe
// for concurrent use.
func (e *Cached) Admitted() int { return int(e.admitted.Load()) }

// Rejected returns how many answer sets the full cache refused because
// their query had been asked for no more often than the entry they would
// have replaced. Safe for concurrent use.
func (e *Cached) Rejected() int { return int(e.rejected.Load()) }

// Build implements Engine and clears the cache: cached answer sets are
// only valid for the database they were computed on.
func (e *Cached) Build(db *graph.Database, opts BuildOptions) error {
	err := e.inner.Build(db, opts)
	// Invalidate after the inner engine switched over, as AppendGraph
	// does: a query that overlapped the switch holds the old epoch, so
	// whatever it computed is dropped at store.
	e.mu.Lock()
	e.db = db
	e.invalidate()
	e.mu.Unlock()
	return err
}

// invalidate empties the cache and starts a new epoch. Caller holds mu.
func (e *Cached) invalidate() {
	e.epoch++
	e.entries = nil
	clear(e.byKey)
}

// IndexMemory implements Engine.
func (e *Cached) IndexMemory() int64 {
	var cache int64
	e.mu.Lock()
	for _, ent := range e.entries {
		cache += ent.query.MemoryFootprint() + int64(len(ent.answers))*8 + int64(len(ent.labels))*4
	}
	e.mu.Unlock()
	return e.inner.IndexMemory() + cache
}

// Query implements Engine.
func (e *Cached) Query(q *graph.Graph, opts QueryOptions) *Result {
	// Fingerprint before probing: it is the cache key, hit and miss paths
	// report the same hash, and the inner engine (which sees it already
	// set in opts) does not recompute it.
	fp := fingerprintQuery(q, &opts)
	if res, done := degenerate(q); done {
		res.Fingerprint = fp
		return res
	}
	// One arena for everything the wrapper itself matches: the exact-hit
	// confirmation and the containment probes.
	s := matching.AcquireScratch()
	defer matching.ReleaseScratch(s)

	t0 := time.Now()
	view := e.view(fp)
	hit := lookup(q, view, s)
	took := time.Since(t0)

	var res *Result
	if hit.kind == "" {
		e.misses.Add(1)
		res = e.inner.Query(q, opts)
		res.Cache = CacheMiss
	} else {
		e.hits.Add(1)
		res = e.answer(q, view, hit, took, opts)
	}
	if hit.kind != CacheExact {
		e.store(q, fp, res, view.epoch, s)
	}
	// After delegating: the outermost engine name wins in the report, and
	// the hit paths (no engine entry) stamp the fingerprint.
	res.Fingerprint = fp
	opts.Explain.SetEngine(e.name)
	return res
}

// answer builds the Result of a hit: the stored answers themselves
// (exact), or the verified pool (subgraph).
func (e *Cached) answer(q *graph.Graph, v cacheView, hit cacheHit, took time.Duration, opts QueryOptions) *Result {
	hit.from.used.Store(e.clock.Add(1))
	if ex := opts.Explain; ex != nil {
		// The cached answer pool acted as the index here; report it as a
		// probe so EXPLAIN shows where the candidates came from.
		ex.ObserveIndexProbe(obs.IndexProbe{
			Index:     "result-cache",
			Features:  len(v.entries),
			Survivors: len(hit.from.answers),
		})
	}
	var res *Result
	if hit.kind == CacheExact {
		res = &Result{
			Answers:    slices.Clone(hit.from.answers),
			Candidates: len(hit.from.answers),
		}
	} else {
		res = e.verifyPool(q, v.db, hit.from.answers, hit.confirmed, opts)
	}
	res.Cache = hit.kind
	// The lookup stood in for the filtering step: it produced the
	// candidate set.
	res.FilterTime = took
	return res
}

// view snapshots the cache for one query and counts the lookup toward its
// fingerprint's admission count. The critical section is two map accesses
// and three loads, plus the halving of every count once per aging period.
func (e *Cached) view(fp telemetry.Fingerprint) cacheView {
	e.mu.Lock()
	v := cacheView{entries: e.entries, chain: e.byKey[fp], db: e.db, epoch: e.epoch}
	e.freq[fp]++
	if e.lookups++; e.lookups >= agingPeriod*e.max {
		e.age()
	}
	e.mu.Unlock()
	return v
}

// age halves every admission count and forgets the ones that reach zero.
// Between two agings at most agingPeriod × capacity new keys arrive, and
// halving leaves at most half the counts' sum, so the table never holds
// more than 2 × agingPeriod × capacity keys. Caller holds mu.
func (e *Cached) age() {
	e.lookups = 0
	for fp, n := range e.freq {
		if n /= 2; n == 0 {
			delete(e.freq, fp)
		} else {
			e.freq[fp] = n
		}
	}
}

// lookup resolves q against the snapshot, holding no lock: first the
// exact-hit chain of its key, then the containment probes.
func lookup(q *graph.Graph, v cacheView, s *matching.Scratch) cacheHit {
	for _, ent := range v.chain {
		if isomorphic(ent.query, q, s) {
			return cacheHit{kind: CacheExact, from: ent}
		}
	}
	if len(v.entries) == 0 {
		return cacheHit{}
	}
	return probe(q, v.entries, s)
}

// isomorphic reports whether a and b are the same labeled graph up to
// vertex renumbering: equal vertex and edge counts plus one embedding of a
// into b.
func isomorphic(a, b *graph.Graph, s *matching.Scratch) bool {
	return a.NumVertices() == b.NumVertices() && a.NumEdges() == b.NumEdges() && embeds(a, b, s)
}

// embeds reports whether small ⊆ big by one bounded first-embedding search
// on the arena. Cache matching runs outside the inner engine's panic
// boundary, so it carries its own: a panic, like an exhausted budget or an
// injected abort, reads as "no" — a lost hit, never a wrong one (the cache
// is an accelerator, not a correctness dependency).
func embeds(small, big *graph.Graph, s *matching.Scratch) (found bool) {
	defer func() {
		if r := recover(); r != nil {
			obs.Panics.Inc()
			found = false
		}
	}()
	return matching.CFQL.FindFirst(small, big, matching.Options{StepBudget: probeSteps, Scratch: s}).Found()
}

// sortedLabels returns g's vertex labels in ascending order.
func sortedLabels(g *graph.Graph) []graph.Label {
	labels := slices.Clone(g.Labels())
	slices.Sort(labels)
	return labels
}

// labelsWithin reports whether the sorted label multiset sub is contained
// in the sorted multiset super — necessary for a label-preserving
// injection from sub's graph into super's.
func labelsWithin(sub, super []graph.Label) bool {
	if len(sub) > len(super) {
		return false
	}
	j := 0
	for _, l := range sub {
		for j < len(super) && super[j] < l {
			j++
		}
		if j == len(super) || super[j] != l {
			return false
		}
		j++
	}
	return true
}

// mayEmbed is the containment screen: the cheap necessary conditions for
// small ⊆ big, checked before any matching.
func mayEmbed(small, big *graph.Graph, smallLabels, bigLabels []graph.Label) bool {
	return small.NumEdges() <= big.NumEdges() && labelsWithin(smallLabels, bigLabels)
}

// probe scans the snapshot for containment hits: the tightest subgraph
// hit (smallest answer pool) and, only when there is one to shortcut, the
// union of the supergraph hits' answers.
func probe(q *graph.Graph, entries []*cacheEntry, s *matching.Scratch) cacheHit {
	labels := sortedLabels(q)
	var hit cacheHit
	for _, ent := range entries {
		if hit.from != nil && len(ent.answers) >= len(hit.from.answers) {
			continue // could not tighten the pool
		}
		if mayEmbed(ent.query, q, ent.labels, labels) && embeds(ent.query, q, s) {
			// ent.query ⊆ q: answers of q are among ent.answers.
			hit.from = ent
		}
	}
	if hit.from == nil {
		return cacheHit{}
	}
	hit.kind = CacheSubgraph
	for _, ent := range entries {
		if len(ent.answers) == 0 || ent == hit.from {
			continue
		}
		if mayEmbed(q, ent.query, labels, ent.labels) && embeds(q, ent.query, s) {
			// q ⊆ ent.query: every answer of ent is an answer of q.
			hit.confirmed = append(hit.confirmed, ent.answers...)
		}
	}
	slices.Sort(hit.confirmed)
	hit.confirmed = slices.Compact(hit.confirmed)
	return hit
}

// cfqlFirst is the pool's subgraph isomorphism test: the whole CFQL
// matcher, first match, on a graph that is already a candidate.
var cfqlFirst = matcherTest(matching.CFQL.FindFirst)

// verifyPool answers q by testing only the graphs of the candidate pool
// through the engines' per-graph loop (run.each), skipping those already
// confirmed by a supergraph hit. pool and confirmed are ascending.
func (e *Cached) verifyPool(q *graph.Graph, db *graph.Database, pool, confirmed []int, opts QueryOptions) (res *Result) {
	res = &Result{Candidates: len(pool)}
	defer queryGuard(e.name, res)
	h := opts.Handle
	h.SetPhase(inflight.PhaseVerify)
	h.SetGraphsTotal(len(pool))
	h.AddCandidates(len(pool))
	todo := make([]int, 0, len(pool))
	for _, gid := range pool {
		for len(confirmed) > 0 && confirmed[0] < gid {
			confirmed = confirmed[1:]
		}
		if len(confirmed) == 0 || confirmed[0] != gid {
			todo = append(todo, gid)
			continue
		}
		// Supergraph hit: answered without a subgraph isomorphism test,
		// so no verification event is emitted.
		res.Answers = append(res.Answers, gid)
		h.GraphDone()
		h.AddAnswers(1)
	}
	rn := newRun(e.name, db, q, opts, res, h, cfqlFirst)
	now := rn.read()
	res.VerifyTime = rn.each(todo, len(todo), 1, now) - now
	slices.Sort(res.Answers)
	return res
}

// store publishes (q, res.Answers) unless the result is not cacheable, the
// database changed since the query's snapshot, or an isomorphic query
// already holds a slot. When full it evicts the least recently used entry,
// but only for a query asked for more often than that entry's; otherwise
// the answer set is refused (res itself is the caller's either way).
func (e *Cached) store(q *graph.Graph, fp telemetry.Fingerprint, res *Result, epoch uint64, s *matching.Scratch) {
	// Only complete answer sets are cacheable: a timed-out, cancelled,
	// failed or partially-skipped query yields a lower bound that would
	// poison later containment reasoning.
	if res.TimedOut || res.Err != nil || res.Skipped != 0 {
		return
	}
	ent := &cacheEntry{key: fp, query: q, labels: sortedLabels(q), answers: slices.Clone(res.Answers)}
	ent.used.Store(e.clock.Add(1))

	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch != e.epoch {
		return
	}
	// The chain is non-empty only for a twin stored by a concurrent query
	// since this one's lookup, or a fingerprint collision — rare enough to
	// match under the lock.
	for _, old := range e.byKey[fp] {
		if isomorphic(old.query, q, s) {
			return
		}
	}
	var victim *cacheEntry
	if len(e.entries) >= e.max {
		victim = e.entries[0]
		for _, old := range e.entries[1:] {
			if old.used.Load() < victim.used.Load() {
				victim = old
			}
		}
		if e.freq[fp] <= e.freq[victim.key] {
			e.rejected.Add(1)
			return
		}
		e.byKey[victim.key] = without(e.byKey[victim.key], victim)
		if len(e.byKey[victim.key]) == 0 {
			delete(e.byKey, victim.key)
		}
	}
	e.entries = append(without(e.entries, victim), ent)
	e.byKey[fp] = append(without(e.byKey[fp], nil), ent)
	e.admitted.Add(1)
}

// without returns a fresh copy of list with drop removed and room for one
// more entry — the copy-on-write step behind every cache mutation.
func without(list []*cacheEntry, drop *cacheEntry) []*cacheEntry {
	out := make([]*cacheEntry, 0, len(list)+1)
	for _, ent := range list {
		if ent != drop {
			out = append(out, ent)
		}
	}
	return out
}

// AppendGraph implements Updatable when the inner engine does; the cache
// is invalidated because cached answer sets may miss the new graph.
func (e *Cached) AppendGraph(g *graph.Graph) (int, error) {
	u, ok := e.inner.(Updatable)
	if !ok {
		return 0, errNotUpdatable(e.inner.Name())
	}
	gid, err := u.AppendGraph(g)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.invalidate()
	e.mu.Unlock()
	return gid, nil
}

func errNotUpdatable(name string) error {
	return &notUpdatableError{name}
}

type notUpdatableError struct{ name string }

func (e *notUpdatableError) Error() string {
	return "core: " + e.name + " does not support incremental updates"
}
