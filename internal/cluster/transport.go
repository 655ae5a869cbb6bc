package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"subgraphquery/internal/core"
	"subgraphquery/internal/fault"
	"subgraphquery/internal/graph"
)

// ErrShardUnavailable is the transient transport error: the replica is
// down, dropped the request, or was unreachable. The coordinator retries
// it with backoff; only after the retry budget is exhausted does the
// shard degrade.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// Transport carries one query attempt to one shard replica. The
// interface is the seam between the coordinator's robustness logic and
// the hosting substrate: Local runs replicas in-process (this PR), a
// network transport slots in behind the same three methods. A Transport
// must be safe for concurrent Query calls.
//
// Error contract: (nil, err) is a transport-level failure — the attempt
// never reached an engine, or the response was lost — and is retryable.
// A non-nil *Result is an engine response; the coordinator inspects
// Result.Err itself. Implementations must not return (nil, nil).
type Transport interface {
	// Query runs q against the given replica of the given shard,
	// blocking until the engine returns, the attempt fails, or
	// opts.Context ends. A transport across a wire sends the context's
	// deadline with the request and cancels the remote query when the
	// context is cancelled.
	Query(shard, replica int, q *graph.Graph, opts core.QueryOptions) (*core.Result, error)
	// NumShards returns the cluster width.
	NumShards() int
	// Replicas returns how many replicas serve the given shard (>= 1).
	Replicas(shard int) int
}

// Local is the in-process Transport: every replica is a *Shard in this
// address space. It adds the serving tier's failure surface — per-replica
// kill switches for tests and operations, and the sqchaos fault points
// (fault.PointShard drop/latency/error injection) at the exact boundary
// a network transport would fail at — so the coordinator's retry, hedge
// and degradation paths are exercised without any real network.
type Local struct {
	replicas [][]*Shard    // [shard][replica]
	down     []atomic.Bool // [shard*stride + replica]
	stride   int
	attempts atomic.Uint64 // total Query attempts carried
	refused  atomic.Uint64 // attempts refused: killed replica or injected drop
}

// NewLocal wraps the replica matrix (replicas[shard][replica]; every
// shard needs >= 1 replica).
func NewLocal(replicas [][]*Shard) (*Local, error) {
	stride := 0
	for s, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", s)
		}
		if len(reps) > stride {
			stride = len(reps)
		}
	}
	return &Local{
		replicas: replicas,
		down:     make([]atomic.Bool, len(replicas)*stride),
		stride:   stride,
	}, nil
}

// NumShards implements Transport.
func (l *Local) NumShards() int { return len(l.replicas) }

// Replicas implements Transport.
func (l *Local) Replicas(shard int) int { return len(l.replicas[shard]) }

// Shard returns the given replica's *Shard (for stats and tests).
func (l *Local) Shard(shard, replica int) *Shard { return l.replicas[shard][replica] }

// Query implements Transport. The sqchaos points fire here, on the way
// in: fault.ShardDrop models a lost request (per-shard seeded, so a
// chaos run starves specific shards deterministically), fault.Inject
// models transport latency and panics, fault.Abort a refused connection.
// All of it is compiled out without the sqchaos tag.
func (l *Local) Query(shard, replica int, q *graph.Graph, opts core.QueryOptions) (*core.Result, error) {
	l.attempts.Add(1)
	if l.killed(shard, replica) {
		l.refused.Add(1)
		return nil, fmt.Errorf("%w: shard %d replica %d is down", ErrShardUnavailable, shard, replica)
	}
	if fault.ShardDrop(shard) {
		l.refused.Add(1)
		return nil, fmt.Errorf("%w: shard %d dropped the request (injected)", ErrShardUnavailable, shard)
	}
	fault.Inject(fault.PointShard)
	if fault.Abort(fault.PointShard) {
		l.refused.Add(1)
		return nil, fmt.Errorf("%w: shard %d refused (injected)", ErrShardUnavailable, shard)
	}
	return l.replicas[shard][replica].Query(q, opts), nil
}

// Kill marks one replica down: subsequent attempts fail with
// ErrShardUnavailable until Revive. In-flight queries on the replica are
// not interrupted (matching a network partition, where already-accepted
// work may still complete but its response is lost to new callers).
func (l *Local) Kill(shard, replica int) { l.down[shard*l.stride+replica].Store(true) }

// Revive brings a killed replica back.
func (l *Local) Revive(shard, replica int) { l.down[shard*l.stride+replica].Store(false) }

// KillShard downs every replica of the shard.
func (l *Local) KillShard(shard int) {
	for r := range l.replicas[shard] {
		l.Kill(shard, r)
	}
}

// ReviveShard revives every replica of the shard.
func (l *Local) ReviveShard(shard int) {
	for r := range l.replicas[shard] {
		l.Revive(shard, r)
	}
}

func (l *Local) killed(shard, replica int) bool {
	return l.down[shard*l.stride+replica].Load()
}

// Stats reports the transport's lifetime attempt counters.
func (l *Local) Stats() (attempts, refused uint64) {
	return l.attempts.Load(), l.refused.Load()
}
