package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sq "subgraphquery"
)

// generatorClients is the number of keep-alive connections and of client
// goroutines: the machine's two cores, one in-flight request per core.
const generatorClients = 2

// clientTimeout fails a request the server has not answered in time.
const clientTimeout = 10 * time.Second

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     generatorClients,
			MaxIdleConnsPerHost: generatorClients,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// sample is what the generator keeps of one operation. Times are seconds
// from the phase start.
type sample struct {
	op op
	// due is when the schedule wanted the request sent (equal to sent in a
	// closed loop), sent when it was, done when the response was read.
	due, sent, done float64
	// failure is empty for a success, else the first reason found.
	failure string

	filterUS, verifyUS  int64
	candidates, answers int
	respBytes           int
	// appendID is the id the server gave an appended graph.
	appendID int
	// appended are the answer ids beyond the original database: graphs
	// appended during the run, checked against IsSubgraph afterwards.
	appended []int
}

func (s sample) ok() bool { return s.failure == "" }

// serviceMS is the time the client waited for the response once sent.
func (s sample) serviceMS() float64 { return (s.done - s.sent) * 1e3 }

// latencyMS is timed from the due time, so the wait a stall imposes on
// later due requests counts against them.
func (s sample) latencyMS() float64 { return (s.done - s.due) * 1e3 }

// queryReply is the part of the POST /query response the benchmark reads.
type queryReply struct {
	Answers    []int `json:"answers"`
	Candidates int   `json:"candidates"`
	FilterUS   int64 `json:"filter_us"`
	VerifyUS   int64 `json:"verify_us"`
	TimedOut   bool  `json:"timed_out"`
	Cancelled  bool  `json:"cancelled"`
	Degraded   bool  `json:"degraded"`
	Skipped    int   `json:"skipped"`
}

// generator drives one server with the workload's operation sequence. The
// cursor runs on through warm-up, closed phase and rate phase, so both
// timed phases follow one seed-determined sequence.
type generator struct {
	client *http.Client
	base   string
	in     *inputs
	cursor atomic.Int64
}

func (g *generator) nextOp() op {
	i := g.cursor.Add(1) - 1
	return g.in.ops[int(i)%len(g.in.ops)]
}

// do sends one operation and checks the response as far as it can be
// checked at once: transport, status, the engine's own failure flags, and
// the answer set over the original id range against the oracle.
func (g *generator) do(ctx context.Context, o op, s *sample) {
	path, body := "/query", g.in.bodies
	if o.kind == opAppend {
		path, body = "/graphs", g.in.appendBodies
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, bytes.NewReader(body[o.index]))
	if err != nil {
		s.failure = err.Error()
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		s.failure = "transport: " + err.Error()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.failure = "reading response: " + err.Error()
		return
	}
	s.respBytes = len(data)
	if resp.StatusCode != http.StatusOK {
		s.failure = fmt.Sprintf("status %d", resp.StatusCode)
		return
	}
	if o.kind == opAppend {
		var reply struct {
			ID *int `json:"id"`
		}
		if err := json.Unmarshal(data, &reply); err != nil || reply.ID == nil {
			s.failure = "append response without id"
			return
		}
		s.appendID = *reply.ID
		return
	}
	var reply queryReply
	if err := json.Unmarshal(data, &reply); err != nil {
		s.failure = "decoding response: " + err.Error()
		return
	}
	s.filterUS, s.verifyUS = reply.FilterUS, reply.VerifyUS
	s.candidates, s.answers = reply.Candidates, len(reply.Answers)
	switch {
	case reply.TimedOut, reply.Cancelled:
		s.failure = "query timed out or was cancelled"
	case reply.Degraded:
		s.failure = "degraded response"
	case reply.Skipped > 0:
		s.failure = fmt.Sprintf("%d graphs skipped", reply.Skipped)
	default:
		s.failure, s.appended = checkAnswers(reply.Answers, g.in.answers[o.index], g.in.db.Len())
	}
}

// checkAnswers compares got, restricted to ids below origLen, with the
// oracle's set, and returns the ids at or above origLen for the check
// after the run.
func checkAnswers(got, want []int, origLen int) (failure string, appended []int) {
	if !sort.IntsAreSorted(got) {
		got = append([]int(nil), got...)
		sort.Ints(got)
	}
	cut := sort.SearchInts(got, origLen)
	orig := got[:cut]
	if len(orig) != len(want) {
		return fmt.Sprintf("answer set has %d original ids, oracle has %d", len(orig), len(want)), nil
	}
	for i := range orig {
		if orig[i] != want[i] {
			return fmt.Sprintf("answer set differs from oracle at id %d", want[i]), nil
		}
	}
	if cut < len(got) {
		appended = append([]int(nil), got[cut:]...)
	}
	return "", appended
}

// runClosed runs the closed loop: each client sends its next request when
// the previous one returns, until the phase is over.
func (g *generator) runClosed(ctx context.Context, phase time.Duration) []sample {
	start := time.Now()
	perClient := make([][]sample, generatorClients)
	var wg sync.WaitGroup
	for c := 0; c < generatorClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < phase && ctx.Err() == nil {
				s := sample{op: g.nextOp()}
				s.sent = time.Since(start).Seconds()
				s.due = s.sent
				g.do(ctx, s.op, &s)
				s.done = time.Since(start).Seconds()
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	return mergeByDone(perClient)
}

// runRate runs the open loop: request i is due at start + i/rate, waits
// for a free client if both are busy, and is timed from its due time.
func (g *generator) runRate(ctx context.Context, rate float64, phase time.Duration) []sample {
	n := int64(rate * phase.Seconds())
	interval := 1 / rate
	start := time.Now()
	var next atomic.Int64
	perClient := make([][]sample, generatorClients)
	var wg sync.WaitGroup
	for c := 0; c < generatorClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				s := sample{op: g.nextOp(), due: float64(i) * interval}
				if wait := s.due - time.Since(start).Seconds(); wait > 0 {
					time.Sleep(time.Duration(wait * float64(time.Second)))
				}
				s.sent = time.Since(start).Seconds()
				g.do(ctx, s.op, &s)
				s.done = time.Since(start).Seconds()
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	return mergeByDone(perClient)
}

func mergeByDone(perClient [][]sample) []sample {
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// lagGrowing reports a rate phase the server could not keep up with: the
// generator ran later and later, so the schedule's rate was never offered
// and the phase's latencies describe a growing queue, not the rate. It
// compares how late requests were sent in the last fifth of the schedule
// with the middle fifth: a backlog growing steadily from the start makes
// that ratio 1.8, a stall the generator caught up with makes it below 1.
func lagGrowing(samples []sample) bool {
	if len(samples) < 50 {
		return false
	}
	byDue := append([]sample(nil), samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	lag := func(part []sample) float64 {
		lags := make([]float64, len(part))
		for i, s := range part {
			lags[i] = s.sent - s.due
		}
		return median(lags)
	}
	fifth := len(byDue) / 5
	mid, last := lag(byDue[2*fifth:3*fifth]), lag(byDue[4*fifth:])
	return last > 0.1 && last > 1.5*mid
}

// verifyAppended checks, after the run, every answer id that named a graph
// appended during the run: the id must be one the server handed out, and
// the query must really be contained in that graph. It marks offending
// samples failed.
func verifyAppended(in *inputs, phases ...[]sample) {
	byID := map[int]int{} // server id -> index into in.appends
	for _, samples := range phases {
		for _, s := range samples {
			if s.op.kind == opAppend && s.ok() {
				byID[s.appendID] = s.op.index
			}
		}
	}
	type pair struct{ query, id int }
	memo := map[pair]bool{}
	for _, samples := range phases {
		for i := range samples {
			s := &samples[i]
			for _, id := range s.appended {
				ai, known := byID[id]
				if !known {
					s.failure = fmt.Sprintf("answer names unknown graph id %d", id)
					break
				}
				p := pair{s.op.index, id}
				contained, seen := memo[p]
				if !seen {
					contained = sq.IsSubgraph(in.queries[s.op.index], in.appends[ai])
					memo[p] = contained
				}
				if !contained {
					s.failure = fmt.Sprintf("answer names appended graph %d, which does not contain the query", id)
					break
				}
			}
		}
	}
}
