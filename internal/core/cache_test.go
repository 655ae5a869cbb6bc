package core

import (
	"math/rand"
	"sync"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/telemetry"
)

// extendQuery grows q by one pendant edge whose endpoint label exists in
// the database, producing a supergraph of q.
func extendQuery(q *graph.Graph, label graph.Label) *graph.Graph {
	labels := append(append([]graph.Label(nil), q.Labels()...), label)
	edges := append(q.Edges(), graph.Edge{U: 0, V: graph.VertexID(len(labels) - 1)})
	return graph.MustFromEdges(labels, edges)
}

func TestCachedMatchesInner(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	db := randomDB(r, 20, 9, 2)
	plain := NewCFQL()
	cached := NewCached(NewCFQL(), 0)
	if err := plain.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	// Issue related queries: base patterns and their extensions, repeated,
	// so both subgraph and supergraph hits occur.
	var queries []*graph.Graph
	for k := 0; k < 6; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 2+r.Intn(3))
		queries = append(queries, q, extendQuery(q, q.Label(0)), q)
	}
	for i, q := range queries {
		want := plain.Query(q, QueryOptions{})
		got := cached.Query(q, QueryOptions{})
		if !equalInts(want.Answers, got.Answers) {
			t.Fatalf("query %d: cached answers %v != plain %v", i, got.Answers, want.Answers)
		}
	}
	if cached.Hits() == 0 {
		t.Error("no cache hits on repeated/contained queries")
	}
	if cached.Misses() == 0 {
		t.Error("first queries must miss")
	}
}

func TestCachedRepeatHitsPool(t *testing.T) {
	r := rand.New(rand.NewSource(409))
	db := randomDB(r, 15, 8, 2)
	cached := NewCached(NewCFQL(), 4)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)
	first := cached.Query(q, QueryOptions{})
	second := cached.Query(q, QueryOptions{})
	if !equalInts(first.Answers, second.Answers) {
		t.Fatalf("repeat query changed answers: %v vs %v", second.Answers, first.Answers)
	}
	if cached.Hits() != 1 || cached.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", cached.Hits(), cached.Misses())
	}
	// The repeat's candidate pool is the previous answer set.
	if second.Candidates != len(first.Answers) {
		t.Errorf("repeat candidates = %d, want %d", second.Candidates, len(first.Answers))
	}
}

func TestCachedEviction(t *testing.T) {
	r := rand.New(rand.NewSource(419))
	db := randomDB(r, 10, 8, 2)
	cached := NewCached(NewCFQL(), 2)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 2+k%3)
		cached.Query(q, QueryOptions{})
	}
	if n := cachedLen(cached); n > 2 {
		t.Errorf("cache holds %d entries, capacity 2", n)
	}
}

func TestCachedBuildClears(t *testing.T) {
	r := rand.New(rand.NewSource(421))
	db := randomDB(r, 8, 8, 2)
	cached := NewCached(NewCFQL(), 8)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 2)
	cached.Query(q, QueryOptions{})
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := cachedLen(cached); n != 0 {
		t.Errorf("Build left %d cache entries", n)
	}
}

func TestCachedAppendInvalidates(t *testing.T) {
	r := rand.New(rand.NewSource(431))
	db := randomDB(r, 8, 8, 2)
	cached := NewCached(NewCFQL(), 8)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 2)
	before := cached.Query(q, QueryOptions{})

	extra := randomConnected(r, 8, 6, 2)
	gid, err := cached.AppendGraph(extra)
	if err != nil {
		t.Fatal(err)
	}
	// Query drawn from the appended graph must see it (stale cache would
	// hide it if not invalidated).
	q2 := walkQuery(r, extra, 2)
	res := cached.Query(q2, QueryOptions{})
	if !res.Contains(gid) {
		t.Errorf("appended graph %d missing from answers %v", gid, res.Answers)
	}
	// The original query still answers correctly (now possibly more).
	after := cached.Query(q, QueryOptions{})
	if len(after.Answers) < len(before.Answers) {
		t.Errorf("answers shrank after append: %v -> %v", before.Answers, after.Answers)
	}
	if cached.Name() != "CFQL+cache" {
		t.Errorf("Name = %q", cached.Name())
	}
}

func TestCachedOverNonUpdatable(t *testing.T) {
	r := rand.New(rand.NewSource(433))
	db := randomDB(r, 5, 6, 2)
	cached := NewCached(NewGIndex(), 4)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.AppendGraph(randomConnected(r, 5, 3, 2)); err == nil {
		t.Error("append over gIndex should fail (mining-based index)")
	}
}

// cachedLen returns how many slots the cache holds, checking on the way
// that the fingerprint index and the entry list agree.
func cachedLen(e *Cached) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	indexed := 0
	for _, chain := range e.byKey {
		indexed += len(chain)
	}
	if indexed != len(e.entries) {
		panic("cache index and entry list disagree")
	}
	return len(e.entries)
}

func builtCached(t *testing.T, db *graph.Database, capacity int) *Cached {
	t.Helper()
	cached := NewCached(NewCFQL(), capacity)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return cached
}

// TestCachedZipfDifferential: over a Zipf-distributed sequence whose
// repeats arrive freshly renumbered (as a re-parsed request would), the
// cached engine answers every query exactly as plain CFQL does, whatever
// the capacity — one slot thrashes, four evict constantly, 64 hold all.
func TestCachedZipfDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(443))
	db := randomDB(r, 40, 10, 3)
	plain := NewCFQL()
	if err := plain.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	var shapes []*graph.Graph
	for k := 0; k < 15; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 2+r.Intn(4))
		shapes = append(shapes, q, extendQuery(q, q.Label(0)))
	}
	zipf := rand.NewZipf(r, 1.3, 4, uint64(len(shapes)-1))
	sequence := make([]*graph.Graph, 300)
	want := make([][]int, len(sequence))
	for i := range sequence {
		sequence[i] = gen.Renumber(shapes[zipf.Uint64()], r)
		want[i] = plain.Query(sequence[i], QueryOptions{}).Answers
	}
	for _, capacity := range []int{1, 4, 64} {
		cached := builtCached(t, db, capacity)
		kinds := map[string]int{}
		for i, q := range sequence {
			got := cached.Query(q, QueryOptions{})
			if !equalInts(got.Answers, want[i]) {
				t.Fatalf("capacity %d, query %d (%s hit): answers %v, want %v", capacity, i, got.Cache, got.Answers, want[i])
			}
			kinds[got.Cache]++
		}
		if n := cachedLen(cached); n > capacity {
			t.Errorf("capacity %d: cache holds %d entries", capacity, n)
		}
		if kinds[CacheExact] == 0 || kinds[CacheMiss] == 0 {
			t.Errorf("capacity %d: outcomes %v, want exact hits and misses", capacity, kinds)
		}
		if capacity == 64 && kinds[CacheSubgraph] == 0 {
			t.Errorf("capacity 64: outcomes %v, want subgraph hits too", kinds)
		}
		if kinds[CacheExact]+kinds[CacheSubgraph] != cached.Hits() || kinds[CacheMiss] != cached.Misses() {
			t.Errorf("capacity %d: outcomes %v disagree with Hits/Misses %d/%d", capacity, kinds, cached.Hits(), cached.Misses())
		}
	}
}

// TestCachedFingerprintCollision: two non-isomorphic queries of equal
// size forced onto one key must each get their own answers — the key is a
// hint, the embedding test decides — and both must be cacheable.
func TestCachedFingerprintCollision(t *testing.T) {
	path := graph.MustFromEdges([]graph.Label{0, 0, 0, 0}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	star := graph.MustFromEdges([]graph.Label{0, 0, 0, 0}, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	db := graph.NewDatabase([]*graph.Graph{
		path, star,
		graph.MustFromEdges([]graph.Label{0, 0, 0, 0, 0}, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}),
		graph.MustFromEdges([]graph.Label{0, 0, 0, 0, 0}, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}}),
	})
	wantPath, wantStar := trueAnswers(db, path), trueAnswers(db, star)
	if equalInts(wantPath, wantStar) {
		t.Fatal("fixture: path and star have the same answers")
	}
	cached := builtCached(t, db, 8)
	opts := QueryOptions{Fingerprint: telemetry.Fingerprint(0xc0111de)}
	for round, wantKind := range []string{CacheMiss, CacheExact, CacheExact} {
		for _, c := range []struct {
			name string
			q    *graph.Graph
			want []int
		}{{"path", path, wantPath}, {"star", star, wantStar}} {
			got := cached.Query(c.q, opts)
			if !equalInts(got.Answers, c.want) {
				t.Fatalf("round %d: %s answers %v, want %v", round, c.name, got.Answers, c.want)
			}
			if got.Cache != wantKind {
				t.Errorf("round %d: %s outcome %q, want %q", round, c.name, got.Cache, wantKind)
			}
		}
	}
	if n := cachedLen(cached); n != 2 {
		t.Errorf("cache holds %d entries, want both colliding queries", n)
	}
}

// TestCachedAppendAfterExactHit: an append invalidates what exact hits
// serve, so the next repeat sees the new graph.
func TestCachedAppendAfterExactHit(t *testing.T) {
	r := rand.New(rand.NewSource(449))
	db := randomDB(r, 8, 8, 2)
	cached := builtCached(t, db, 8)
	extra := randomConnected(r, 8, 6, 2)
	q := walkQuery(r, extra, 3)
	cached.Query(q, QueryOptions{})
	if hit := cached.Query(q, QueryOptions{}); hit.Cache != CacheExact {
		t.Fatalf("repeat outcome %q, want an exact hit", hit.Cache)
	}
	gid, err := cached.AppendGraph(extra)
	if err != nil {
		t.Fatal(err)
	}
	after := cached.Query(gen.Renumber(q, r), QueryOptions{})
	if after.Cache != CacheMiss || !after.Contains(gid) {
		t.Fatalf("repeat after append: outcome %q, answers %v, want a miss containing graph %d", after.Cache, after.Answers, gid)
	}
}

// appendDuringQuery is an engine whose Query is overtaken by an append:
// the answers it returns were computed before the database grew.
type appendDuringQuery struct {
	Engine
	overtake func()
}

func (e *appendDuringQuery) Query(q *graph.Graph, opts QueryOptions) *Result {
	res := e.Engine.Query(q, opts)
	if e.overtake != nil {
		e.overtake()
		e.overtake = nil
	}
	return res
}

func (e *appendDuringQuery) AppendGraph(g *graph.Graph) (int, error) {
	return e.Engine.(Updatable).AppendGraph(g)
}

// TestCachedDropsStaleStore: an answer set computed before an append must
// not be published after it.
func TestCachedDropsStaleStore(t *testing.T) {
	r := rand.New(rand.NewSource(457))
	db := randomDB(r, 8, 8, 2)
	extra := randomConnected(r, 8, 6, 2)
	q := walkQuery(r, extra, 3)
	inner := &appendDuringQuery{Engine: NewCFQL()}
	cached := NewCached(inner, 8)
	if err := cached.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	var gid int
	inner.overtake = func() {
		var err error
		if gid, err = cached.AppendGraph(extra); err != nil {
			t.Error(err)
		}
	}
	cached.Query(q, QueryOptions{})
	if n := cachedLen(cached); n != 0 {
		t.Fatalf("stale answer set was stored (%d entries)", n)
	}
	if res := cached.Query(q, QueryOptions{}); res.Cache != CacheMiss || !res.Contains(gid) {
		t.Fatalf("query after the overtaking append: outcome %q, answers %v, want a miss containing graph %d", res.Cache, res.Answers, gid)
	}
}

// edge is a single-edge query. Over disjoint label pairs there is no
// containment between two of them, so every outcome is exact or a miss.
func edge(a, b graph.Label) *graph.Graph {
	return graph.MustFromEdges([]graph.Label{a, b}, []graph.Edge{{U: 0, V: 1}})
}

// distinctEdges returns n single-edge queries over disjoint label pairs,
// starting at label first.
func distinctEdges(first graph.Label, n int) []*graph.Graph {
	qs := make([]*graph.Graph, n)
	for i := range qs {
		qs[i] = edge(first+graph.Label(2*i), first+graph.Label(2*i+1))
	}
	return qs
}

// TestCachedLRUOneSlotPerQuery: a repeated query holds one slot however
// often and however it hits, eviction takes the least recently *used*
// entry, not the oldest, and a new query takes that slot only once it has
// been asked for more often than the entry holding it.
func TestCachedLRUOneSlotPerQuery(t *testing.T) {
	qa, qb, qc := edge(0, 1), edge(2, 3), edge(4, 5)
	db := graph.NewDatabase([]*graph.Graph{qa, qb, qc, extendQuery(qa, 1)})
	cached := builtCached(t, db, 2)
	r := rand.New(rand.NewSource(461))

	for i := 0; i < 5; i++ {
		cached.Query(gen.Renumber(qa, r), QueryOptions{})
	}
	if n := cachedLen(cached); n != 1 {
		t.Fatalf("five repeats hold %d slots, want 1", n)
	}
	// A containment hit stores the new query once; its repeats are exact.
	ext := extendQuery(qa, 1)
	for i, want := range []string{CacheSubgraph, CacheExact, CacheExact} {
		if got := cached.Query(ext, QueryOptions{}); got.Cache != want {
			t.Fatalf("extension, pass %d: outcome %q, want %q", i, got.Cache, want)
		}
	}
	if n := cachedLen(cached); n != 2 {
		t.Fatalf("query and its extension hold %d slots, want 2", n)
	}

	cached = builtCached(t, db, 2)
	cached.Query(qa, QueryOptions{})
	cached.Query(qb, QueryOptions{})
	cached.Query(qa, QueryOptions{}) // qa is now the more recently used
	// qc has been asked for as often as qb, the victim: qb keeps its slot.
	if got := cached.Query(qc, QueryOptions{}); got.Cache != CacheMiss || cached.Rejected() != 1 {
		t.Fatalf("first qc: outcome %q, %d rejected, want a miss and 1", got.Cache, cached.Rejected())
	}
	// The second ask puts qc ahead of qb, which it now evicts.
	if got := cached.Query(qc, QueryOptions{}); got.Cache != CacheMiss || cached.Admitted() != 3 {
		t.Fatalf("second qc: outcome %q, %d admitted, want a miss and 3", got.Cache, cached.Admitted())
	}
	for _, c := range []struct {
		name string
		q    *graph.Graph
		want string
	}{{"qc", qc, CacheExact}, {"qa", qa, CacheExact}, {"qb", qb, CacheMiss}} {
		if got := cached.Query(c.q, QueryOptions{}); got.Cache != c.want {
			t.Errorf("%s: outcome %q, want %q", c.name, got.Cache, c.want)
		}
	}
}

// freqLen returns how many fingerprints the admission filter counts.
func freqLen(e *Cached) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.freq)
}

// TestCachedAdmission: one-off queries cannot push repeated ones out, a
// new hot set still takes over, the count table stays bounded, and a
// refused answer set reaches its caller whole.
func TestCachedAdmission(t *testing.T) {
	const capacity = 4
	hot := distinctEdges(0, capacity)
	db := graph.NewDatabase(append(distinctEdges(0, 2*capacity), extendQuery(hot[0], 1)))

	t.Run("one-offs-do-not-evict", func(t *testing.T) {
		cached := builtCached(t, db, capacity)
		for range 2 {
			for _, q := range hot {
				cached.Query(q, QueryOptions{})
			}
		}
		for i, q := range distinctEdges(100, 10*capacity) {
			if got := cached.Query(q, QueryOptions{}); got.Cache != CacheMiss {
				t.Fatalf("one-off %d: outcome %q, want a miss", i, got.Cache)
			}
			if got := cached.Query(hot[i%capacity], QueryOptions{}); got.Cache != CacheExact {
				t.Fatalf("hot query %d after one-off %d: outcome %q, want an exact hit", i%capacity, i, got.Cache)
			}
		}
		if cached.Rejected() != 10*capacity {
			t.Errorf("%d answer sets rejected, want the %d one-offs", cached.Rejected(), 10*capacity)
		}
	})

	t.Run("new-hot-set-takes-over", func(t *testing.T) {
		cached := builtCached(t, db, capacity)
		// Long enough for the old set's counts to reach their ceiling.
		for range 4 * agingPeriod {
			for _, q := range hot {
				cached.Query(q, QueryOptions{})
			}
		}
		next := distinctEdges(2*capacity, capacity)
		for range agingPeriod {
			for _, q := range next {
				cached.Query(q, QueryOptions{})
			}
		}
		for i, q := range next {
			if got := cached.Query(q, QueryOptions{}); got.Cache != CacheExact {
				t.Errorf("new hot query %d after one aging period: outcome %q, want an exact hit", i, got.Cache)
			}
		}
	})

	t.Run("table-bounded", func(t *testing.T) {
		cached := builtCached(t, db, capacity)
		most := 0
		for _, q := range distinctEdges(100, 100*capacity) {
			cached.Query(q, QueryOptions{})
			most = max(most, freqLen(cached))
		}
		if most > 2*agingPeriod*capacity {
			t.Errorf("admission table reached %d keys, want at most %d", most, 2*agingPeriod*capacity)
		}
	})

	t.Run("refused-answers-returned", func(t *testing.T) {
		cached := builtCached(t, db, 1)
		for range 3 {
			cached.Query(hot[1], QueryOptions{})
		}
		q := hot[0]
		want := trueAnswers(db, q)
		if len(want) < 2 {
			t.Fatalf("fixture: %d answers, want several", len(want))
		}
		got := cached.Query(q, QueryOptions{})
		if got.Cache != CacheMiss || cached.Rejected() != 1 {
			t.Fatalf("outcome %q with %d rejected, want a refused miss", got.Cache, cached.Rejected())
		}
		if !equalInts(got.Answers, want) {
			t.Errorf("refused answer set %v, want %v", got.Answers, want)
		}
	})
}

// TestCachedStorm mixes exact repeats, containment hits and appends from
// many goroutines under the caller-side lock the server uses (queries
// share, appends exclude), with unlocked readers of the counters beside
// them. Every answer set must equal a VF2 scan of the database as it was
// during the query, and no arena may stay checked out. Run with -race.
func TestCachedStorm(t *testing.T) {
	r := rand.New(rand.NewSource(463))
	db := randomDB(r, 25, 9, 2)
	cached := builtCached(t, db, 6)
	var shapes []*graph.Graph
	for k := 0; k < 8; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 2+r.Intn(3))
		shapes = append(shapes, q, extendQuery(q, q.Label(0)))
	}
	baseline := matching.ScratchLive()

	const workers, rounds = 8, 60
	var dbLock sync.RWMutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = cached.Hits() + cached.Misses() + int(cached.IndexMemory())
			}
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < workers; w++ {
		queriers.Add(1)
		go func(seed int64) {
			defer queriers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				if r.Intn(15) == 0 {
					g := randomConnected(r, 3+r.Intn(8), r.Intn(6), 2)
					dbLock.Lock()
					_, err := cached.AppendGraph(g)
					dbLock.Unlock()
					if err != nil {
						t.Error(err)
					}
					continue
				}
				q := gen.Renumber(shapes[r.Intn(len(shapes))], r)
				dbLock.RLock()
				got := cached.Query(q, QueryOptions{})
				want := trueAnswers(db, q)
				dbLock.RUnlock()
				if !equalInts(got.Answers, want) {
					t.Errorf("%s outcome: answers %v, want %v", got.Cache, got.Answers, want)
					return
				}
			}
		}(int64(w))
	}
	queriers.Wait()
	close(stop)
	wg.Wait()
	if live := matching.ScratchLive(); live != baseline {
		t.Errorf("ScratchLive = %d after the storm, want %d", live, baseline)
	}
	if cached.Hits() == 0 || cached.Misses() == 0 {
		t.Errorf("storm saw %d hits and %d misses, want both", cached.Hits(), cached.Misses())
	}
}

// TestCachedExactHitAllocs: an exact hit allocates the Result and the
// copy of the answers, nothing that grows with the query, the cache or
// the database.
func TestCachedExactHitAllocs(t *testing.T) {
	if !allocCountsHold {
		t.Skip("allocation counts are for production builds: off under -race and -tags sqdebug")
	}
	r := rand.New(rand.NewSource(467))
	db := randomDB(r, 60, 12, 2)
	cached := builtCached(t, db, 0)
	var q *graph.Graph
	for k := 0; k < 20; k++ {
		q = walkQuery(r, db.Graph(r.Intn(db.Len())), 6)
		cached.Query(q, QueryOptions{})
	}
	twin := gen.Renumber(q, r)
	if res := cached.Query(twin, QueryOptions{}); res.Cache != CacheExact || len(res.Answers) == 0 {
		t.Fatalf("warm-up outcome %q with %d answers, want a non-empty exact hit", res.Cache, len(res.Answers))
	}
	allocs := testing.AllocsPerRun(100, func() {
		cached.Query(twin, QueryOptions{})
	})
	if allocs > 2 {
		t.Errorf("exact hit allocates %.0f objects per query, want at most 2", allocs)
	}
}
