package core

import (
	"math/rand"
	"testing"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/telemetry"
)

// TestFingerprintThreading: every engine stamps the canonical fingerprint
// on its Result and honors a caller-provided value instead of recomputing.
func TestFingerprintThreading(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	db := randomDB(r, 20, 8, 3)
	q := walkQuery(r, db.Graph(0), 3)
	want := telemetry.Compute(q)
	if want == 0 {
		t.Fatal("Compute returned the reserved zero fingerprint")
	}

	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		res := e.Query(q, QueryOptions{})
		if res.Fingerprint != want {
			t.Errorf("%s: Result.Fingerprint = %s, want %s", name, res.Fingerprint, want)
		}

		// A preset fingerprint is echoed, not recomputed: engines trust the
		// caller so the admission path and wrappers stay authoritative.
		preset := telemetry.Fingerprint(0xabad1dea)
		res = e.Query(q, QueryOptions{Fingerprint: preset})
		if res.Fingerprint != preset {
			t.Errorf("%s: preset fingerprint not echoed: got %s", name, res.Fingerprint)
		}
	}
}

// TestFingerprintDegenerateQuery: even the empty query gets a fingerprint,
// so degenerate requests still aggregate in workload profiles.
func TestFingerprintDegenerateQuery(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	db := randomDB(r, 5, 6, 2)
	empty := graph.MustFromEdges(nil, nil)
	for name, e := range allEngines() {
		if err := e.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		res := e.Query(empty, QueryOptions{})
		if res.Fingerprint == 0 {
			t.Errorf("%s: degenerate query got zero fingerprint", name)
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s: degenerate query returned answers", name)
		}
	}
}

// TestFingerprintCacheHitPath: the cached engine reports the same
// fingerprint on the miss (delegated) and hit (verifyPool) paths.
func TestFingerprintCacheHitPath(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	db := randomDB(r, 20, 8, 3)
	q := walkQuery(r, db.Graph(1), 3)
	e := NewCached(NewCFQL(), 8)
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	first := e.Query(q, QueryOptions{})
	second := e.Query(q, QueryOptions{})
	if e.Hits() == 0 {
		t.Skip("repeat query did not hit the cache; nothing to compare")
	}
	if first.Fingerprint == 0 || first.Fingerprint != second.Fingerprint {
		t.Fatalf("fingerprint differs across cache hit: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
}
