package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	sq "subgraphquery"
)

func TestAdmissionVerdicts(t *testing.T) {
	never := make(chan struct{})

	t.Run("disabled", func(t *testing.T) {
		if a := newAdmission(0, 8, time.Second, 0); a != nil {
			t.Error("maxConcurrent=0 should disable admission")
		}
		if a := newAdmission(-1, 8, time.Second, 0); a != nil {
			t.Error("negative maxConcurrent should disable admission")
		}
	})

	t.Run("shed-on-full-queue", func(t *testing.T) {
		a := newAdmission(1, 0, 50*time.Millisecond, 0)
		release, v := a.acquire(never)
		if v != admitOK {
			t.Fatalf("first acquire: %v, want admitOK", v)
		}
		if _, v := a.acquire(never); v != admitShed {
			t.Errorf("second acquire with no queue: %v, want admitShed", v)
		}
		if !a.saturated() {
			t.Error("slot busy + zero queue should read saturated")
		}
		release()
		if a.saturated() {
			t.Error("saturated after release")
		}
		if _, v := a.acquire(never); v != admitOK {
			t.Errorf("acquire after release: %v, want admitOK", v)
		}
	})

	t.Run("queue-timeout", func(t *testing.T) {
		a := newAdmission(1, 1, 20*time.Millisecond, 0)
		release, v := a.acquire(never)
		if v != admitOK {
			t.Fatalf("first acquire: %v", v)
		}
		defer release()
		t0 := time.Now()
		if _, v := a.acquire(never); v != admitTimeout {
			t.Errorf("queued acquire: %v, want admitTimeout", v)
		}
		if waited := time.Since(t0); waited < 20*time.Millisecond {
			t.Errorf("timed out after %v, want >= the 20ms queue wait", waited)
		}
	})

	t.Run("queue-handoff", func(t *testing.T) {
		a := newAdmission(1, 1, time.Second, 0)
		release, v := a.acquire(never)
		if v != admitOK {
			t.Fatalf("first acquire: %v", v)
		}
		got := make(chan admitVerdict, 1)
		go func() {
			r2, v2 := a.acquire(never)
			if r2 != nil {
				defer r2()
			}
			got <- v2
		}()
		for a.depth() == 0 {
			time.Sleep(time.Millisecond)
		}
		release()
		if v2 := <-got; v2 != admitOK {
			t.Errorf("queued acquire after release: %v, want admitOK", v2)
		}
	})

	t.Run("client-gone", func(t *testing.T) {
		a := newAdmission(1, 1, time.Second, 0)
		release, v := a.acquire(never)
		if v != admitOK {
			t.Fatalf("first acquire: %v", v)
		}
		defer release()
		gone := make(chan struct{})
		got := make(chan admitVerdict, 1)
		go func() {
			_, v2 := a.acquire(gone)
			got <- v2
		}()
		for a.depth() == 0 {
			time.Sleep(time.Millisecond)
		}
		close(gone)
		if v2 := <-got; v2 != admitCancelled {
			t.Errorf("queued acquire with dead client: %v, want admitCancelled", v2)
		}
	})

	t.Run("queue-bound-under-burst", func(t *testing.T) {
		// Every slot held, room for one waiter, and 64 arrivals released
		// together: exactly one may queue, the other 63 shed on arrival, and
		// no reader may ever see a deeper queue than the bound.
		const arrivals = 64
		a := newAdmission(1, 1, time.Minute, 0)
		release, v := a.acquire(never)
		if v != admitOK {
			t.Fatalf("first acquire: %v", v)
		}
		start := make(chan struct{})
		verdicts := make(chan admitVerdict, arrivals)
		var wg sync.WaitGroup
		for range arrivals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r, v := a.acquire(never)
				if r != nil {
					defer r()
				}
				verdicts <- v
			}()
		}
		stop := make(chan struct{})
		peak := make(chan int64)
		go func() {
			var p int64
			for {
				select {
				case <-stop:
					peak <- p
					return
				default:
					p = max(p, a.depth())
				}
			}
		}()
		close(start)
		// Until the slot frees, a verdict can only be a shed: count them
		// until every arrival has either shed or queued.
		shed := 0
		for shed+int(a.depth()) < arrivals {
			select {
			case v := <-verdicts:
				if v != admitShed {
					t.Fatalf("verdict %v while the only slot is held, want admitShed", v)
				}
				shed++
			case <-time.After(time.Millisecond):
			}
		}
		close(stop)
		if p := <-peak; p > 1 {
			t.Errorf("queue depth read %d, above the bound 1", p)
		}
		if shed != arrivals-1 || a.depth() != 1 {
			t.Errorf("%d shed and %d queued, want %d and 1", shed, a.depth(), arrivals-1)
		}
		release()
		wg.Wait()
	})

	t.Run("retry-after", func(t *testing.T) {
		for wait, want := range map[time.Duration]int{
			50 * time.Millisecond:   1,
			time.Second:             1,
			1500 * time.Millisecond: 2,
		} {
			a := newAdmission(1, 0, wait, 0)
			if got := a.retryAfterSeconds(); got != want {
				t.Errorf("retryAfterSeconds(wait=%v) = %d, want %d", wait, got, want)
			}
		}
	})

	t.Run("retry-after-jitter-band", func(t *testing.T) {
		// wait=1500ms rounds up to base 2; jitter=3 widens the hint to
		// [2, 5]. Every draw must stay inside the band, and across many
		// draws the hint must not be constant (else the herd stays
		// synchronized and jitter bought nothing).
		const base, jitter = 2, 3
		a := newAdmission(1, 0, 1500*time.Millisecond, jitter)
		seen := map[int]bool{}
		for i := 0; i < 400; i++ {
			got := a.retryAfterSeconds()
			if got < base || got > base+jitter {
				t.Fatalf("retryAfterSeconds() = %d, outside band [%d, %d]", got, base, base+jitter)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Errorf("400 draws produced a single value %v; jitter is not being applied", seen)
		}
	})
}

// admissionServer builds a server with a single execution slot so the tests
// can hold it and observe shedding end to end.
func admissionServer(t *testing.T, maxQueue int, wait time.Duration) *server {
	t.Helper()
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 10, NumVertices: 16, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{
		slowThreshold: -1,
		maxInflight:   1,
		maxQueue:      maxQueue,
		queueWait:     wait,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed Retry-After keeps the header assertions exact; the jitter
	// band is pinned by TestAdmissionVerdicts/retry-after-jitter-band.
	srv.adm.jitter = 0
	return srv
}

func TestQuerySheds429WithRetryAfter(t *testing.T) {
	srv := admissionServer(t, 0, 2*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Hold the only slot, as an in-flight query would.
	release, v := srv.adm.acquire(make(chan struct{}))
	if v != admitOK {
		t.Fatalf("acquire: %v", v)
	}

	q := graphText(t, testQuery(t, srv))
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if got := srv.shed.Value(); got != 1 {
		t.Errorf("queries_shed_total = %d, want 1", got)
	}

	// Saturated server reads not-ready.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "shedding") {
		t.Errorf("healthz while saturated: %d %q, want 503 shedding", hz.StatusCode, body)
	}

	// Metrics expose the shed counter and queue depth gauge.
	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(mt.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mt.Body.Close()
	if metrics.Counters["queries_shed_total"] != 1 {
		t.Errorf("metrics queries_shed_total = %d, want 1", metrics.Counters["queries_shed_total"])
	}
	if _, ok := metrics.Gauges["admission_queue_depth"]; !ok {
		t.Error("metrics missing admission_queue_depth gauge")
	}

	release()
	hz2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz2.Body)
	hz2.Body.Close()
	if hz2.StatusCode != http.StatusOK {
		t.Errorf("healthz after release: %d, want 200", hz2.StatusCode)
	}

	// And the freed slot serves queries again.
	ok, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ok.Body)
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("query after release: %d, want 200", ok.StatusCode)
	}
}

func TestQueryQueueTimeoutSheds(t *testing.T) {
	srv := admissionServer(t, 4, 30*time.Millisecond)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	release, v := srv.adm.acquire(make(chan struct{}))
	if v != admitOK {
		t.Fatalf("acquire: %v", v)
	}
	defer release()

	q := graphText(t, testQuery(t, srv))
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429 after queue wait expiry", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

func TestQueryClientGoneWhileQueued408(t *testing.T) {
	srv := admissionServer(t, 4, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	release, v := srv.adm.acquire(make(chan struct{}))
	if v != admitOK {
		t.Fatalf("acquire: %v", v)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	q := graphText(t, testQuery(t, srv))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Let the request reach the admission queue, then walk away.
		for srv.adm.depth() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		// The handler answered 408 before the transport noticed the cancel.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Errorf("status %d, want 408", resp.StatusCode)
		}
		return
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("unexpected transport error: %v", err)
	}
}

// TestQueryMemoryBudgetOnWire: a server-wide memory budget surfaces in the
// response as skipped graphs with structured budget errors — HTTP 200, the
// answer set an explicit lower bound — rather than an OOM or a 500.
func TestQueryMemoryBudgetOnWire(t *testing.T) {
	db, err := sq.GenerateSynthetic(sq.SyntheticConfig{
		NumGraphs: 10, NumVertices: 16, NumLabels: 3, Degree: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(db, sq.NewCFQLEngine(), serverConfig{
		slowThreshold: -1,
		memBudget:     1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := graphText(t, testQuery(t, srv))
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Skipped == 0 || len(out.GraphErrors) == 0 {
		t.Fatalf("skipped=%d graph_errors=%d under a 1-byte budget, want both > 0",
			out.Skipped, len(out.GraphErrors))
	}
	for _, qe := range out.GraphErrors {
		if qe.Kind != sq.ErrKindBudget {
			t.Errorf("graph error kind %q, want %q", qe.Kind, sq.ErrKindBudget)
		}
	}
	if len(out.Answers) != 0 {
		t.Errorf("answers %v under a 1-byte budget, want none", out.Answers)
	}
}
