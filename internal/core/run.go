package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraphquery/internal/budget"
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
	opts QueryOptions // a copy, so the caller's options stay on its stack
	res  *Result
	h    *inflight.Handle
	test graphTest
	// The run's clock: readings are monotonic offsets from base, and limit
	// is the deadline on that scale (out of reach when there is none), so
	// one reading both times a phase and answers "past the deadline?".
	base  time.Time
	limit time.Duration
	// The context's Done channel and deadline, read once in newRun: the
	// matching layer polls them raw, once per data graph and per stride.
	done     <-chan struct{}
	deadline time.Time
	// stopped: the query takes no more graphs. Set by stop, and by fold
	// when a graph's filter aborted — the whole query stops, not just that
	// graph.
	stopped bool
}

// since is the clock every reading of a run goes through; the clock-budget
// test swaps it to count them.
var since = time.Since

func newRun(name string, db *graph.Database, q *graph.Graph, opts QueryOptions, res *Result, h *inflight.Handle, test graphTest) *run {
	rn := &run{name: name, db: db, q: q, opts: opts, res: res, h: h, test: test,
		base: time.Now(), limit: math.MaxInt64}
	if ctx := opts.Context; ctx != nil {
		rn.done = ctx.Done()
		if d, ok := ctx.Deadline(); ok {
			rn.deadline, rn.limit = d, d.Sub(rn.base)
		}
	}
	return rn
}

// read takes one clock reading. The loop takes one per phase boundary and
// chains them: the reading that ends one graph's filter or verification
// starts the next phase and is the one stop compares with the deadline.
func (rn *run) read() time.Duration { return since(rn.base) }

// graphTest decides one data graph on the worker's arena and reports into
// the worker's outcome record. On entry out.at is the reading at which the
// graph was taken; the test leaves its own last reading there. It may
// panic; the loop skips the graph.
type graphTest func(rn *run, gid int, s *matching.Scratch, out *outcome)

// outcome is what one graph's test hands to fold. A worker reuses one
// record for all its graphs and passes it by pointer, so whatever the test
// wrote before a panic still reaches the fold.
type outcome struct {
	at             time.Duration // the latest clock reading
	filter, verify time.Duration // fused tests only
	r              matching.Result
	mem            int64 // candidate-structure footprint, when pass
	pass           bool  // the filter passed: the graph is a candidate
	aborted        bool  // the filter hit the deadline or cancellation
	qe             *QueryError
}

// fusedTest is the body of Algorithm 2's loop: Filter (the preprocessing
// phase of a subgraph matching algorithm) builds candidate vertex sets; a
// graph with no empty set is a candidate and is verified by the
// enumeration phase stopped at the first embedding. The two halves are
// fused per graph because the candidate sets live in the arena and are
// overwritten by the next filter call. It runs m's two halves itself, not
// m.FindFirst, to time them apart and to hand Explain, the memory budget
// and the in-flight handle through.
func fusedTest(m matching.Matcher) graphTest {
	return func(rn *run, gid int, s *matching.Scratch, out *outcome) {
		q, g, opts := rn.q, rn.db.Graph(gid), &rn.opts
		t0 := out.at
		cand := m.Filter(q, g, matching.FilterOptions{
			Deadline:     rn.deadline,
			Cancel:       rn.done,
			MemoryBudget: opts.MemoryBudget,
			Explain:      opts.Explain,
			Scratch:      s,
		})
		out.at = rn.read()
		out.filter = out.at - t0
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

		t1 := out.at
		ord := m.Order(q, g, cand, s)
		s.ObserveOrder(opts.Explain, ord, cand)
		r, err := matching.Enumerate(q, g, cand, ord, matching.Options{
			Limit:      1,
			Deadline:   rn.deadline,
			Cancel:     rn.done,
			StepBudget: opts.StepBudgetPerGraph,
			Scratch:    s,
			Progress:   rn.h.StepCounter(),
		})
		out.at = rn.read()
		out.verify = out.at - t1
		if err != nil {
			// Orders from the built-in strategies are always valid for
			// connected queries; surface misuse loudly.
			panic(err)
		}
		if o := opts.Observer; o != nil {
			o.ObserveVerify(gid, r.Steps, out.verify, r.Found())
		}
		opts.Explain.ObserveEnumerate(r.Jumps, r.Redos, r.Pruned, r.WordIsects, r.ProbeIsects, r.MergeIsects)
		out.r = r
	}
}

// matcherTest is Algorithm 1's Verify: one first-match subgraph
// isomorphism test by a whole matcher (VF2, TurboIso, CFQL) on a graph
// that is already a candidate.
func matcherTest(findFirst func(q, g *graph.Graph, opts matching.Options) matching.Result) graphTest {
	return func(rn *run, gid int, s *matching.Scratch, out *outcome) {
		opts := &rn.opts
		t0 := out.at
		out.r = findFirst(rn.q, rn.db.Graph(gid), matching.Options{
			Deadline:   rn.deadline,
			Cancel:     rn.done,
			StepBudget: opts.StepBudgetPerGraph,
			Scratch:    s,
			Progress:   rn.h.StepCounter(),
		})
		out.at = rn.read()
		if o := opts.Observer; o != nil {
			o.ObserveVerify(gid, out.r.Steps, out.at-t0, out.r.Found())
		}
	}
}

// stop reports whether the query must not take on more work at clock
// reading now, recording why on the Result: a filter abort already stopped
// it, or the context is done or now is past its deadline (Result.NoteStop
// tells a cancellation from a timeout).
func (rn *run) stop(now time.Duration) bool {
	switch {
	case rn.stopped:
	case now > rn.limit || budget.Cancelled(rn.done):
		rn.res.NoteStop(rn.opts.Context)
	default:
		return false
	}
	rn.stopped = true
	return true
}

// guarded runs the test on one graph, taken at reading out.at, behind the
// per-graph panic boundary: a panicking graph ends up in out.qe and is
// skipped, the query continues.
func (rn *run) guarded(gid int, s *matching.Scratch, out *outcome) {
	*out = outcome{at: out.at}
	defer graphGuard(rn.name, gid, &out.qe)
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
		res.NoteStop(rn.opts.Context)
		rn.stopped = true
		return
	}
	res.VerifySteps += out.r.Steps
	if out.r.Aborted {
		res.NoteStop(rn.opts.Context)
	}
	if out.r.Found() {
		res.Answers = append(res.Answers, gid)
		h.AddAnswers(1)
	}
}

// each runs the test on the n graphs ids[0..n) — or 0..n-1 when ids is
// nil — from clock reading now on, checking stop before each one, with one
// arena per worker, and returns the reading at which the loop ended. With
// workers <= 1 everything happens on the caller's goroutine in id order,
// lock-free, and each graph starts at the reading the one before ended on;
// otherwise the graphs go to a pool (see pool).
func (rn *run) each(ids []int, n, workers int, now time.Duration) time.Duration {
	if workers > 1 {
		return rn.pool(ids, n, workers, now)
	}
	s := matching.AcquireScratch()
	defer matching.ReleaseScratch(s)
	out := outcome{at: now}
	for i := 0; i < n && !rn.stop(out.at); i++ {
		gid := nth(ids, i)
		rn.guarded(gid, s, &out)
		rn.fold(gid, &out)
	}
	return out.at
}

// nth is the graph id at position i of each's input: ids[i], or i itself
// when ids is nil. A function rather than a closure in each, so that the
// sequential path allocates nothing the pool's goroutines would capture.
func nth(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// pool is each on workers goroutines: they claim chunks of consecutive
// positions from an atomic cursor, a worker reads the clock for each graph
// it takes, and the answers are sorted at the end.
func (rn *run) pool(ids []int, n, workers int, now time.Duration) time.Duration {
	if rn.stop(now) {
		return now
	}

	// A chunk is small enough that a short survivor list still reaches
	// every worker and large enough that claiming it costs nothing beside
	// its graphs; each graph then takes the run's mutex once, to fold.
	chunk := max(1, min(64, n/(8*workers)))
	var next atomic.Int64
	var halt atomic.Bool // rn.stopped, for the workers to read unlocked
	var mu sync.Mutex    // guards rn.res and rn.stopped
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// A panic that escaped the per-graph guard (e.g. in arena
				// bookkeeping): record a query-level error and leave the
				// rest of this worker's chunk; the other workers go on. A
				// panic escaping the goroutine would kill the process, not
				// just the query.
				if v := recover(); v != nil {
					obs.Panics.Inc()
					mu.Lock()
					if rn.res.Err == nil {
						rn.res.Err = newPanicError(rn.name, -1, v)
					}
					mu.Unlock()
				}
			}()
			s := matching.AcquireScratch()
			defer matching.ReleaseScratch(s)
			var out outcome
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					if halt.Load() {
						return
					}
					if out.at = rn.read(); out.at > rn.limit || budget.Cancelled(rn.done) {
						mu.Lock()
						rn.stop(out.at)
						mu.Unlock()
						halt.Store(true)
						return
					}
					gid := nth(ids, i)
					rn.guarded(gid, s, &out)
					mu.Lock()
					rn.fold(gid, &out)
					if rn.stopped {
						halt.Store(true)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	sort.Ints(rn.res.Answers)
	return rn.read()
}
