//go:build sqchaos

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
	"subgraphquery/internal/matching"
)

// TestChaosClusterShardKillStorm is the scatter-gather acceptance run: a
// 4-shard coordinator serves a 500-query concurrent storm while one shard
// is killed mid-storm and revived before the end. Every response must be
// well-formed — 200 (clean, or degraded with KindShard errors naming the
// lost partition), 408, 429 with Retry-After, or a structured 500 — the
// degraded window must actually be observed, and afterwards nothing may
// leak: the inflight registry drains to empty (hedged losers and retry
// attempts all deregistered), goroutines and scratch arenas return to
// baseline, and a clean query matches the pre-storm answers exactly.
func TestChaosClusterShardKillStorm(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 40, NumVertices: 16, NumLabels: 3, Degree: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Shards:   4,
		Replicas: 2, // hedging needs a second replica to race
		Factory:  core.NewCFQL,
		BaseName: "CFQL",
		// Fail over quickly: a killed shard must exhaust its retry budget
		// well inside the request budget so the storm sees degraded 200s,
		// not a wall of 408s.
		RetryBase:  500 * time.Microsecond,
		RetryCap:   2 * time.Millisecond,
		HedgeAfter: 0, // adaptive p99
	})
	if err != nil {
		t.Fatal(err)
	}
	// No result cache: a degraded result cached during the outage would be
	// replayed verbatim after the revive and fail the recovery assertions.
	srv, err := newServer(db, coord, serverConfig{
		budget:        2 * time.Second,
		slowThreshold: -1,
		maxInflight:   4,
		maxQueue:      8,
		queueWait:     100 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const victim = 1
	victimGraphs := map[int]bool{}
	for _, id := range coord.Partitions()[victim] {
		victimGraphs[id] = true
	}
	if len(victimGraphs) == 0 {
		t.Fatal("victim shard holds no graphs; the kill would be unobservable")
	}

	queries, err := sq.GenerateQuerySet(db, sq.QuerySetConfig{
		Count: 10, Edges: 3, Method: sq.QueryRandomWalk, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, len(queries))
	exact := make([][]int, len(queries))
	for i, q := range queries {
		bodies[i] = graphText(t, q)
		res := coord.Query(q, sq.QueryOptions{})
		if res.Err != nil || res.Degraded {
			t.Fatalf("pre-storm query %d unhealthy: err=%v degraded=%v", i, res.Err, res.Degraded)
		}
		exact[i] = res.Answers
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	baselineG := runtime.NumGoroutine()
	baselineS := matching.ScratchLive()

	const totalQueries = 500
	const clients = 8
	var counts [600]atomic.Int64 // indexed by HTTP status
	var malformed atomic.Int64
	var degraded, degradedNamingVictim atomic.Int64
	var done atomic.Int64
	var next atomic.Int64

	// The chaos conductor: kill the victim shard (both replicas) once the
	// storm is rolling, revive it with enough storm left that recovery is
	// observed under load too.
	conductor := make(chan struct{})
	go func() {
		defer close(conductor)
		for done.Load() < totalQueries/5 {
			time.Sleep(time.Millisecond)
		}
		coord.LocalTransport().KillShard(victim)
		for done.Load() < 3*totalQueries/5 {
			time.Sleep(time.Millisecond)
		}
		coord.LocalTransport().ReviveShard(victim)
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= totalQueries {
					return
				}
				resp, err := client.Post(ts.URL+"/query", "text/plain",
					strings.NewReader(bodies[i%int64(len(bodies))]))
				if err != nil {
					malformed.Add(1) // transport failure = server died
					done.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode < len(counts) {
					counts[resp.StatusCode].Add(1)
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var out queryResponse
					if json.Unmarshal(body, &out) != nil {
						malformed.Add(1)
						break
					}
					if !out.Degraded {
						break
					}
					degraded.Add(1)
					// A degraded response must name what was lost.
					named := false
					for _, qe := range out.GraphErrors {
						if qe.Kind == sq.ErrKindShard {
							named = true
							if qe.Shard == victim {
								degradedNamingVictim.Add(1)
							}
						}
					}
					if !named {
						malformed.Add(1)
					}
				case http.StatusRequestTimeout:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						malformed.Add(1)
					}
					time.Sleep(2 * time.Millisecond)
				case http.StatusInternalServerError:
					var out struct {
						Error struct {
							Kind string `json:"kind"`
						} `json:"error"`
					}
					if json.Unmarshal(body, &out) != nil || out.Error.Kind == "" {
						malformed.Add(1)
					}
				default:
					malformed.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	<-conductor

	var summary []string
	var answered int64
	for status := range counts {
		if n := counts[status].Load(); n > 0 {
			answered += n
			summary = append(summary, fmt.Sprintf("%d×%d", status, n))
		}
	}
	cs := coord.Stats()
	t.Logf("statuses: %s; degraded: %d (%d naming shard %d); coordinator: %+v",
		strings.Join(summary, " "), degraded.Load(), degradedNamingVictim.Load(), victim, cs)

	if malformed.Load() != 0 {
		t.Errorf("%d malformed responses", malformed.Load())
	}
	if answered != totalQueries {
		t.Errorf("answered %d of %d queries; the rest hit transport errors", answered, totalQueries)
	}
	if degraded.Load() == 0 {
		t.Error("no degraded response observed; the kill window missed the storm")
	}
	if degradedNamingVictim.Load() == 0 {
		t.Errorf("no degraded response named the killed shard %d in its graph errors", victim)
	}
	if cs.ShardsLost == 0 || cs.DegradedQueries == 0 {
		t.Errorf("coordinator counters flat: %+v", cs)
	}
	if srv.degradedShards.Value() == 0 {
		t.Error("shard_degraded_total stayed zero through a shard outage")
	}

	// Nothing leaked: admission slots free, inflight registry empty (every
	// retry and hedged-loser sub-handle deregistered), scratch arenas
	// returned, goroutines gone.
	client.CloseIdleConnections()
	if d := srv.adm.depth(); d != 0 {
		t.Errorf("admission queue depth %d after run, want 0", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.live.Len() > 0 {
		if time.Now().After(deadline) {
			t.Errorf("inflight registry holds %d handles after the storm, want 0", srv.live.Len())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := matching.ScratchLive(); got != baselineS {
		t.Errorf("scratch arenas leaked: live %d, was %d", got, baselineS)
	}
	for runtime.NumGoroutine() > baselineG {
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: have %d, want <= %d", runtime.NumGoroutine(), baselineG)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-revive, the cluster serves exact answers again.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz after storm: %d, want 200", hz.StatusCode)
	}
	for i := range bodies {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		var out queryResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || out.Degraded {
			t.Fatalf("post-revive query %d: status=%d degraded=%v", i, resp.StatusCode, out.Degraded)
		}
		if len(out.Answers) != len(exact[i]) {
			t.Errorf("post-revive query %d: %d answers, want %d", i, len(out.Answers), len(exact[i]))
			continue
		}
		for j := range out.Answers {
			if out.Answers[j] != exact[i][j] {
				t.Errorf("post-revive query %d: answers diverge at %d: %d != %d",
					i, j, out.Answers[j], exact[i][j])
				break
			}
		}
	}
}
