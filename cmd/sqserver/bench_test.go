package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/gen"
)

// BenchmarkServe drives the whole handler chain in process (request log,
// parse, fingerprint, admission, engine, publish, JSON) over 4 000 AIDS-like
// graphs and 50 Q8 queries cycled, and reports bytes and objects allocated
// per request. bare is the benchmark's bareFlags (-cache 0
// -slowlog-threshold -1s -budget 5s), default is sqserver's default flags
// without the cache, default+cache is the default flags. The gap between
// bare and default is what the default observability costs a query nobody
// asked to trace or explain.
func BenchmarkServe(b *testing.B) {
	db, err := gen.Real(gen.AIDS, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.QuerySet(db, gen.QuerySetConfig{Count: 50, Edges: 8, Method: gen.QueryRandomWalk, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		var buf bytes.Buffer
		if err := sq.WriteGraph(&buf, 0, q); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	// What main passes when no flag is given, less the cache.
	defaults := serverConfig{
		slowThreshold: 100 * time.Millisecond,
		maxInflight:   4, maxQueue: 64, queueWait: time.Second,
		exportSample: 0.01,
	}
	bare, withCache := defaults, defaults
	bare.slowThreshold, bare.budget = -1, 5*time.Second
	withCache.cacheEntries = 64
	for _, c := range []struct {
		name string
		cfg  serverConfig
	}{
		{"bare", bare},
		{"default", defaults},
		{"default+cache", withCache},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv, err := newServer(db, sq.NewCFQLEngine(), c.cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i%len(bodies)]))
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if srv.slow != nil {
				// Through the endpoint, so this file measures any commit.
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/slowlog", nil))
				var slow struct{ Kept int64 }
				if err := json.Unmarshal(w.Body.Bytes(), &slow); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(slow.Kept), "slow-kept")
			}
		})
	}
}
