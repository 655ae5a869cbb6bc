package core

import (
	"sort"
	"sync"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// This file is the one per-data-graph loop behind every engine
// configuration and the result cache's pool verification: run.each takes
// graphs, one at a time or on a worker pool, and folds each graph's
// outcome into the Result and the in-flight handle.

// run is the per-query state the loop and the tests share.
type run struct {
	name string // engine name, for errors
	db   *graph.Database
	q    *graph.Graph
	opts *QueryOptions
	res  *Result
	h    *inflight.Handle
	test graphTest
	// stopped is set by fold when a graph's filter aborted: the whole
	// query stops, not just that graph.
	stopped bool
}

// graphTest decides one data graph on the worker's arena and reports into
// the worker's outcome record. It may panic; the loop skips the graph.
type graphTest func(rn *run, gid int, s *matching.Scratch, out *outcome)

// outcome is what one graph's test hands to fold. A worker reuses one
// record for all its graphs and passes it by pointer, so whatever the test
// wrote before a panic still reaches the fold.
type outcome struct {
	filter, verify time.Duration // fused tests only
	r              matching.Result
	mem            int64 // candidate-structure footprint, when pass
	pass           bool  // the filter passed: the graph is a candidate
	aborted        bool  // the filter hit the deadline or cancellation
	qe             *QueryError
}

type (
	filterFunc func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates
	orderFunc  func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID
)

// fusedTest is the body of Algorithm 2's loop: Filter (the preprocessing
// phase of a subgraph matching algorithm) builds candidate vertex sets; a
// graph with no empty set is a candidate and is verified by the
// enumeration phase stopped at the first embedding. The two halves are
// fused per graph because the candidate sets live in the arena and are
// overwritten by the next filter call. With a nil Explain, filter must
// behave exactly like the plain filter.
func fusedTest(filter filterFunc, order orderFunc) graphTest {
	return func(rn *run, gid int, s *matching.Scratch, out *outcome) {
		q, g, opts := rn.q, rn.db.Graph(gid), rn.opts
		t0 := time.Now()
		cand := filter(q, g, matching.FilterOptions{
			Deadline:     opts.Deadline,
			Cancel:       opts.Cancel,
			MemoryBudget: opts.MemoryBudget,
			Explain:      opts.Explain,
			Scratch:      s,
		})
		out.filter = time.Since(t0)
		switch {
		case cand.BudgetExceeded:
			// Skip this graph; the remaining graphs may still fit.
			out.qe = newBudgetError(rn.name, gid, opts.MemoryBudget)
			return
		case cand.Aborted:
			// The sets prove nothing about this graph.
			out.aborted = true
			return
		case cand.AnyEmpty():
			return
		}
		out.pass = true
		out.mem = cand.MemoryFootprint()
		// Ticked here, not in the fold: a query stuck enumerating this
		// graph should show it as a live candidate with its footprint.
		rn.h.AddCandidates(1)
		rn.h.GrowAux(out.mem)

		t1 := time.Now()
		ord := order(q, g, cand, s)
		observeOrder(opts.Explain, ord, cand)
		r, err := matching.Enumerate(q, g, cand, ord, matching.Options{
			Limit:      1,
			Deadline:   opts.Deadline,
			Cancel:     opts.Cancel,
			StepBudget: opts.StepBudgetPerGraph,
			Scratch:    s,
			Progress:   rn.h.StepCounter(),
		})
		out.verify = time.Since(t1)
		if err != nil {
			// Orders from the built-in strategies are always valid for
			// connected queries; surface misuse loudly.
			panic(err)
		}
		if o := opts.Observer; o != nil {
			o.ObserveVerify(gid, r.Steps, out.verify, r.Found())
		}
		opts.Explain.ObserveEnumerate(r.Jumps, r.Redos, r.ProbeIsects, r.MergeIsects)
		out.r = r
	}
}

// matcherTest is Algorithm 1's Verify: one first-match subgraph
// isomorphism test by a whole matcher (VF2, TurboIso, CFQL) on a graph
// that is already a candidate.
func matcherTest(findFirst func(q, g *graph.Graph, opts matching.Options) matching.Result) graphTest {
	return func(rn *run, gid int, s *matching.Scratch, out *outcome) {
		opts := rn.opts
		o := opts.Observer
		var tv time.Time
		if o != nil {
			tv = time.Now()
		}
		out.r = findFirst(rn.q, rn.db.Graph(gid), matching.Options{
			Deadline:   opts.Deadline,
			Cancel:     opts.Cancel,
			StepBudget: opts.StepBudgetPerGraph,
			Scratch:    s,
			Progress:   rn.h.StepCounter(),
		})
		if o != nil {
			o.ObserveVerify(gid, out.r.Steps, time.Since(tv), out.r.Found())
		}
	}
}

// stop reports whether the loop must not take another graph: a filter
// abort already stopped the query, or halt says so now (and records why).
func (rn *run) stop() bool {
	return rn.stopped || halt(rn.opts, rn.res)
}

// guarded runs the test on one graph behind the per-graph panic boundary:
// a panicking graph ends up in out.qe and is skipped, the query continues.
func (rn *run) guarded(gid int, s *matching.Scratch, out *outcome) {
	*out = outcome{}
	defer graphGuard(rn.name, gid, rn.opts.Observer, &out.qe)
	rn.test(rn, gid, s, out)
}

// fold accounts one taken graph on the Result and the in-flight handle.
// Pool workers call it holding the run's mutex.
func (rn *run) fold(gid int, out *outcome) {
	res, h := rn.res, rn.h
	h.GraphDone()
	res.FilterTime += out.filter
	res.VerifyTime += out.verify
	if out.pass {
		res.Candidates++
		if out.mem > res.AuxMemory {
			res.AuxMemory = out.mem
		}
	}
	if out.qe != nil {
		recordGraphError(res, out.qe)
		return
	}
	if out.aborted {
		noteAbort(rn.opts, res)
		rn.stopped = true
		return
	}
	res.VerifySteps += out.r.Steps
	if out.r.Aborted {
		noteAbort(rn.opts, res)
	}
	if out.r.Found() {
		res.Answers = append(res.Answers, gid)
		h.AddAnswers(1)
	}
}

// each runs the test on the n graphs ids[0..n) — or 0..n-1 when ids is
// nil — checking stop before each one, with one arena per worker. With
// workers <= 1 everything happens on the caller's goroutine in id order,
// lock-free; otherwise a pool draws ids from a channel and the answers are
// sorted at the end.
func (rn *run) each(ids []int, n, workers int) {
	at := func(i int) int {
		if ids == nil {
			return i
		}
		return ids[i]
	}
	if workers <= 1 {
		s := matching.AcquireScratch()
		defer matching.ReleaseScratch(s)
		var out outcome
		for i := 0; i < n && !rn.stop(); i++ {
			gid := at(i)
			rn.guarded(gid, s, &out)
			rn.fold(gid, &out)
		}
		return
	}

	var mu sync.Mutex // guards rn.res and rn.stopped
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// A panic that escaped the per-graph guard (e.g. in arena
				// bookkeeping): record a query-level error and keep
				// draining so the producer never blocks on a dead pool. A
				// panic escaping the goroutine would kill the process, not
				// just the query.
				if v := recover(); v != nil {
					obs.Panics.Inc()
					if o := rn.opts.Observer; o != nil {
						o.ObservePanic(-1)
					}
					mu.Lock()
					if rn.res.Err == nil {
						rn.res.Err = newPanicError(rn.name, -1, v)
					}
					mu.Unlock()
					for range jobs {
					}
				}
			}()
			s := matching.AcquireScratch()
			defer matching.ReleaseScratch(s)
			var out outcome
			for gid := range jobs {
				rn.guarded(gid, s, &out)
				mu.Lock()
				rn.fold(gid, &out)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := rn.stop()
		mu.Unlock()
		if stop {
			break
		}
		select {
		case jobs <- at(i):
		case <-rn.opts.Cancel:
			// Cancelled while every worker is busy: stop feeding the pool
			// instead of blocking on the send forever. The stop check of
			// the next iteration records the cancellation; a nil Cancel
			// never fires, so the select degenerates to the plain send.
		}
	}
	close(jobs)
	wg.Wait()
	sort.Ints(rn.res.Answers)
}
