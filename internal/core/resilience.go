package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"subgraphquery/internal/obs"
)

// This file is the panic-isolation and cancellation layer of the query
// engines (DESIGN.md, "Resilience"). The contract:
//
//   - Every Engine.Query recovers its own panics. A panic while processing
//     one data graph is converted into a *QueryError, the graph is counted
//     in Result.Skipped, and the query continues — one poisoned graph
//     never takes down the query, let alone the process. A panic outside
//     any per-graph section becomes Result.Err and the query returns what
//     it had.
//   - Worker goroutines of the parallel engines recover per graph; a
//     worker never escapes a panic to the runtime (which would kill the
//     whole process, not just the query — goroutine panics cannot be
//     caught by the spawner).
//   - Recovered panics increment obs.Panics, are counted on the Result
//     (Result.Panics), and carry the stack of the panicking goroutine for
//     diagnosis.
//
// Correctness of skip-and-continue: the per-query scratch arena is reset
// per data graph (Candidates.reset, epoch-stamped bitsets), so state a
// panicking pass left behind cannot leak into the next graph's results.

// maxGraphErrors caps Result.GraphErrors; further failures are counted in
// Skipped but not retained, so a pathological database cannot balloon the
// result.
const maxGraphErrors = 16

// QueryError is the structured form of a failure inside query processing.
// It is JSON-marshalable so the server can return it verbatim.
type QueryError struct {
	// Engine is the engine configuration that failed (e.g. "CFQL").
	Engine string `json:"engine"`
	// Kind classifies the failure: KindPanic or KindBudget.
	Kind string `json:"kind"`
	// GraphID is the data graph whose processing failed, -1 when the
	// failure was not attributable to one graph.
	GraphID int `json:"graph_id"`
	// Message describes the failure (the panic value, or the budget that
	// was exceeded).
	Message string `json:"message"`
	// Shard is the partition whose loss this error records, set by the
	// scatter-gather coordinator on KindShard errors (NewShardError);
	// -1 when the failure was not attributable to one shard, mirroring
	// GraphID's sentinel.
	Shard int `json:"shard"`
	// Stack is the stack of the panicking goroutine (empty for budget
	// errors).
	Stack string `json:"stack,omitempty"`

	value any // recovered panic value, for errors.As/Is via Unwrap
}

// QueryError kinds.
const (
	// KindPanic marks a recovered panic.
	KindPanic = "panic"
	// KindBudget marks a memory-budget abort (Candidates.BudgetExceeded).
	KindBudget = "budget"
	// KindShard marks a database partition lost at the scatter-gather
	// tier: a shard that stayed unreachable through the coordinator's
	// retries. The result is then Degraded, not failed — answers from the
	// surviving shards are intact and the error names what is missing.
	KindShard = "shard"
)

// Error implements error.
func (e *QueryError) Error() string {
	if e.GraphID >= 0 {
		return fmt.Sprintf("core: %s %s on graph %d: %s", e.Engine, e.Kind, e.GraphID, e.Message)
	}
	return fmt.Sprintf("core: %s %s: %s", e.Engine, e.Kind, e.Message)
}

// Unwrap exposes the recovered value when it was an error (e.g.
// *fault.InjectedPanic), so errors.As sees through the boundary.
func (e *QueryError) Unwrap() error {
	if err, ok := e.value.(error); ok {
		return err
	}
	return nil
}

// newPanicError builds the QueryError for a value recovered at a
// resilience boundary, capturing the current goroutine's stack.
func newPanicError(engine string, gid int, v any) *QueryError {
	return &QueryError{
		Engine:  engine,
		Kind:    KindPanic,
		GraphID: gid,
		Shard:   -1,
		Message: fmt.Sprint(v),
		Stack:   string(debug.Stack()),
		value:   v,
	}
}

// newBudgetError builds the QueryError for a data graph skipped because
// the candidate structure outgrew QueryOptions.MemoryBudget.
func newBudgetError(engine string, gid int, limit int64) *QueryError {
	return &QueryError{
		Engine:  engine,
		Kind:    KindBudget,
		GraphID: gid,
		Shard:   -1,
		Message: fmt.Sprintf("candidate structure exceeded memory budget of %d bytes", limit),
	}
}

// graphGuard is deferred around the processing of one data graph: it
// recovers a panic into *qe so the caller can skip the graph and keep the
// query going. Counted in obs.Panics.
func graphGuard(engine string, gid int, qe **QueryError) {
	v := recover()
	if v == nil {
		return
	}
	*qe = newPanicError(engine, gid, v)
	obs.Panics.Inc()
}

// queryGuard is deferred at the top of every Engine.Query: it recovers a
// panic that escaped the per-graph guards (or occurred outside any
// per-graph section) into res.Err, so the caller receives a structured
// partial result instead of an unwinding stack.
func queryGuard(engine string, res *Result) {
	v := recover()
	if v == nil {
		return
	}
	res.Err = newPanicError(engine, -1, v)
	obs.Panics.Inc()
}

// recordGraphError folds one skipped graph's error into res (callers in
// worker pools hold the result mutex).
func recordGraphError(res *Result, qe *QueryError) {
	res.Skipped++
	if len(res.GraphErrors) < maxGraphErrors {
		res.GraphErrors = append(res.GraphErrors, qe)
	}
}

// NoteStop records on r that its query stopped early — the loop's stop
// check, or a filter or enumeration abort — classified by ctx.Err(): a
// cancelled ctx sets Cancelled and TimedOut; a passed deadline, a step
// budget or a nil ctx sets TimedOut alone.
func (r *Result) NoteStop(ctx context.Context) {
	r.TimedOut = true
	if ctx != nil && errors.Is(ctx.Err(), context.Canceled) {
		r.Cancelled = true
	}
}
