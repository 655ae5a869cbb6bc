package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/core"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// queryRecord is everything the server knows about one query. Three paths
// fill one — handleQuery for a query that ran, bounce for one admission
// control refused, onStuck for one the watchdog flagged in flight — and hand
// it to publish exactly once; every observability channel is a view of it.
//
// The embedded Event is the fixed-size part and costs no allocation. The
// verbose views cost only when somebody reads them: trace and explain exist
// under ?trace=1 and ?explain=1, and the query's text is rendered only for a
// record the slow log keeps.
type queryRecord struct {
	telemetry.Event

	// status is the HTTP status a bounced query was answered with.
	status int
	// lostShards counts the partitions missing from a degraded answer,
	// errsTruncated the per-graph errors its coordinator dropped.
	lostShards, errsTruncated int
	// detail is the incident message when the producer knows more than the
	// Event says (the watchdog's progress snapshot).
	detail string
	// cache is the Result's cache outcome ("" without a cache), workers its
	// effective pool size.
	cache   string
	workers int

	query   *sq.Graph
	trace   *obs.Trace
	explain *obs.Explain
}

// newRecord starts the record of a query of this shape (q is nil for the
// watchdog, which sees a live handle, not the graph).
func (s *server) newRecord(fp sq.Fingerprint, q *sq.Graph) queryRecord {
	rec := queryRecord{query: q, Event: telemetry.Event{
		TimeUnixMS:  time.Now().UnixMilli(),
		Fingerprint: fp,
		Engine:      s.engine.Name(),
	}}
	if q != nil {
		rec.QueryVertices, rec.QueryEdges = q.NumVertices(), q.NumEdges()
	}
	return rec
}

// executed folds the engine's Result into the record; start is when the
// engine was entered, after any admission wait.
func (rec *queryRecord) executed(res *sq.Result, start time.Time, elapsed time.Duration) {
	rec.TimeUnixMS = start.UnixMilli()
	rec.DurationUS = elapsed.Microseconds()
	rec.FilterUS = res.FilterTime.Microseconds()
	rec.VerifyUS = res.VerifyTime.Microseconds()
	rec.Candidates = res.Candidates
	rec.Answers = len(res.Answers)
	rec.Skipped = res.Skipped
	rec.TimedOut = res.TimedOut
	rec.Cancelled = res.Cancelled
	rec.Error = res.Err != nil
	rec.cache, rec.workers = res.Cache, res.Workers
	rec.CacheHit = res.Cache == core.CacheExact || res.Cache == core.CacheSubgraph
	rec.errsTruncated = res.GraphErrorsTruncated
	rec.Panics = res.Panics()
	for _, ge := range res.GraphErrors {
		switch ge.Kind {
		case core.KindBudget:
			rec.Budget++
		case core.KindShard:
			rec.lostShards++
		}
	}
	if res.Degraded && rec.lostShards == 0 {
		// The KindShard entries lead the capped error list by
		// construction; a degraded answer still lost at least one.
		rec.lostShards = 1
	}
}

// publish is the one place a query reaches the observability channels; what
// the record says happened decides who hears of it (w is nil for the
// watchdog, whose query is still running and is published again, as
// executed, when it ends):
//
//	               registry           profile export incidents slowlog log attrs
//	executed       queries, latency,  yes     yes    if panics offered yes
//	               phases, cache,
//	               workers, timeouts,
//	               degraded
//	bounced        shed (429 only)    yes     yes    yes       no      yes
//	watchdog flag  watchdog_flagged   no      yes    yes       no      no
func (s *server) publish(w http.ResponseWriter, rec *queryRecord) {
	incident, detail := "", rec.detail
	switch {
	case rec.Watchdog:
		s.stuck.Inc()
		incident = "watchdog_stuck"
	case rec.Shed():
		if rec.status == http.StatusTooManyRequests {
			s.shed.Inc()
		}
		incident, detail = rec.Verdict, "admission control: "+rec.Verdict
	default:
		s.queries.Inc()
		elapsed := time.Duration(rec.DurationUS) * time.Microsecond
		s.latency.Record(elapsed)
		s.filterLat.Record(time.Duration(rec.FilterUS) * time.Microsecond)
		s.verifyLat.Record(time.Duration(rec.VerifyUS) * time.Microsecond)
		switch rec.cache {
		case "":
		case core.CacheMiss:
			s.cacheMiss.Inc()
		default:
			s.cacheHit.Inc()
		}
		if rec.workers > 0 {
			s.workerPool.Set(int64(rec.workers))
		}
		if rec.TimedOut {
			s.timeouts.Inc()
		}
		s.degradedShards.Add(int64(rec.lostShards))
		s.errsTruncated.Add(int64(rec.errsTruncated))
		if rec.Panics > 0 {
			incident, detail = "query_panic", fmt.Sprintf("%d panic(s) recovered during query", rec.Panics)
		}
		if s.slow != nil && elapsed >= s.cfg.slowThreshold {
			s.slow.Offer(slowEntry{Event: rec.Event, QueryText: queryText(rec.query)})
		}
	}
	if !rec.Watchdog {
		s.profile.Record(rec.Event)
	}
	s.exporter.Emit(rec.Event)
	if incident != "" {
		s.incident(telemetry.DebugEvent{
			Kind:        incident,
			Fingerprint: rec.Fingerprint,
			Engine:      rec.Engine,
			Status:      rec.status,
			Message:     detail,
		})
	}
	if sr, ok := w.(*statusRecorder); ok {
		sr.query = rec.Event
	}
}

// incident files one entry in the /debug/events ring.
func (s *server) incident(ev telemetry.DebugEvent) {
	ev.Time = time.Now()
	s.events.Offer(ev)
}

// slowEntry is one /debug/slowlog entry: the record's Event and the query in
// the text format (dropped over maxQueryText). It keeps no Trace or Explain:
// building both for every query, for a log that keeps about one in thousands,
// cost more than everything else a served query allocates. POST query_text
// back with ?trace=1&explain=1 to see them.
type slowEntry struct {
	telemetry.Event
	QueryText string `json:"query_text,omitempty"`
}

const maxQueryText = 8 << 10

func queryText(q *sq.Graph) string {
	var b strings.Builder
	if err := sq.WriteGraph(&b, 0, q); err != nil || b.Len() > maxQueryText {
		return ""
	}
	return b.String()
}

// queryResponse is the JSON body returned by POST /query.
type queryResponse struct {
	Answers    []int `json:"answers"`
	Candidates int   `json:"candidates"`
	FilterUS   int64 `json:"filter_us"`
	VerifyUS   int64 `json:"verify_us"`
	TimedOut   bool  `json:"timed_out,omitempty"`
	Cancelled  bool  `json:"cancelled,omitempty"`
	// Skipped counts data graphs abandoned mid-processing (recovered panic
	// or exceeded memory budget); Answers is a lower bound when non-zero.
	Skipped     int              `json:"skipped,omitempty"`
	GraphErrors []*sq.QueryError `json:"graph_errors,omitempty"`
	// Degraded marks a scatter-gather response missing at least one shard
	// partition: Answers is a lower bound, and the lost partitions are
	// named by the KindShard entries in GraphErrors.
	Degraded bool `json:"degraded,omitempty"`
	// GraphErrorsTruncated counts per-graph errors dropped by the
	// coordinator's post-merge cap on GraphErrors.
	GraphErrorsTruncated int                  `json:"graph_errors_truncated,omitempty"`
	Engine               string               `json:"engine"`
	Trace                *obs.TraceSnapshot   `json:"trace,omitempty"`
	Explain              *obs.ExplainSnapshot `json:"explain,omitempty"`
	// InflightID is the live-registry handle id the query ran under, the
	// key correlating this response with /debug/inflight observations.
	InflightID uint64 `json:"inflight_id,omitempty"`
}

// response is the client's view of an executed record: the record's numbers,
// the answer and per-graph errors only the Result carries, and the verbose
// views the request asked for.
func (rec *queryRecord) response(res *sq.Result, inflightID uint64) queryResponse {
	resp := queryResponse{
		Answers:              append([]int{}, res.Answers...),
		Candidates:           rec.Candidates,
		FilterUS:             rec.FilterUS,
		VerifyUS:             rec.VerifyUS,
		TimedOut:             rec.TimedOut,
		Cancelled:            rec.Cancelled,
		Skipped:              rec.Skipped,
		GraphErrors:          res.GraphErrors,
		Degraded:             res.Degraded,
		GraphErrorsTruncated: rec.errsTruncated,
		Engine:               rec.Engine,
		InflightID:           inflightID,
	}
	if rec.trace != nil {
		snap := res.TraceSnapshot(rec.trace)
		resp.Trace = &snap
	}
	if rec.explain != nil {
		snap := rec.explain.Snapshot()
		resp.Explain = &snap
	}
	return resp
}
