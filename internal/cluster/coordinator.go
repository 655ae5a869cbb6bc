// Package cluster is the fault-tolerant scatter-gather serving tier: a
// rendezvous-hash partition splits the graph database across N shards,
// each Shard hosts an independent engine instance over its partition, and
// the Coordinator — itself a core.Engine, so the server and the benchmark
// harness slot it in unchanged — fans every query out over a Transport
// and merges the partial results.
//
// The robustness core lives in the coordinator's per-shard query path:
//
//   - per-shard deadlines derived from the query budget (a small merge
//     reserve is withheld so the coordinator can still assemble a
//     response after the slowest shard);
//   - bounded retries with decorrelated-jitter exponential backoff on
//     transient transport errors, rotating replicas between rounds;
//   - hedged duplicate requests against replica shards after a
//     p99-based delay — first response wins, the loser is cancelled
//     through its inflight handle;
//   - graceful degradation: a shard that stays unreachable through the
//     retry budget yields a partial Result with a KindShard QueryError
//     naming the lost partition and Degraded set, instead of failing
//     the query.
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"subgraphquery/internal/budget"
	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/obs"
	"subgraphquery/internal/telemetry"
)

// Robustness defaults; every knob has a Config override.
const (
	defaultMaxAttempts  = 3
	defaultRetryBase    = 2 * time.Millisecond
	defaultRetryCap     = 200 * time.Millisecond
	defaultMergeReserve = 2 * time.Millisecond

	// Adaptive hedging: before hedgeWarmup successful attempts the
	// per-shard latency histogram is too thin to trust, so a fixed cold
	// delay is used; once warm, the hedge fires at the shard's p99
	// clamped to [hedgeMinDelay, hedgeMaxDelay].
	hedgeWarmup    = 16
	hedgeColdDelay = 25 * time.Millisecond
	hedgeMinDelay  = time.Millisecond
	hedgeMaxDelay  = 250 * time.Millisecond
)

// Config sizes and tunes a Coordinator.
type Config struct {
	// Shards is the cluster width (>= 1). Ignored by NewWithTransport,
	// which takes the width from the transport.
	Shards int
	// Replicas is how many engine instances serve each shard (>= 1;
	// default 1). Hedging needs >= 2: the duplicate request targets the
	// next replica, not the one already in flight.
	Replicas int
	// Factory builds one engine instance per shard replica.
	Factory func() core.Engine
	// BaseName overrides the engine name used in Name() ("<base>-x<N>");
	// default is the name of a Factory-built instance.
	BaseName string
	// ShardConcurrency bounds simultaneous Query calls per shard replica
	// (its admission semaphore); <= 0 = unlimited.
	ShardConcurrency int
	// MaxAttempts bounds query rounds per shard, the first included
	// (default 3). A round may add one hedged attempt on top.
	MaxAttempts int
	// RetryBase and RetryCap shape the decorrelated-jitter backoff
	// between rounds: sleep ~ Uniform(base, 3*prev), capped
	// (defaults 2ms / 200ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter fixes the hedge delay; 0 selects the adaptive per-shard
	// p99 delay, negative disables hedging.
	HedgeAfter time.Duration
	// MergeReserve is withheld from each shard's deadline so the
	// coordinator can merge under the caller's budget (default 2ms;
	// negative = 0).
	MergeReserve time.Duration
}

// Coordinator fans queries out to the cluster's shards and merges the
// partial results. It implements core.Engine: Build partitions the
// database and builds every shard replica; Query must not be called
// before a successful Build (NewWithTransport coordinators are born
// built).
type Coordinator struct {
	cfg  Config
	name string

	transport  Transport
	local      *Local  // nil when the transport is external
	partitions [][]int // per-shard ascending global graph ids
	dbLen      int
	external   bool

	lat []*obs.Histogram // per-shard successful-attempt latency

	stats statCounters
}

// Construction and lifecycle errors. Sentinels so callers (and tests)
// can match them with errors.Is.
var (
	errNoShards    = errors.New("cluster: Config.Shards must be >= 1")
	errNoFactory   = errors.New("cluster: Config.Factory is required")
	errNoTransport = errors.New("cluster: transport is required")
	errNotBuilt    = errors.New("cluster: Query before Build")
)

// New returns a coordinator that will build its own in-process cluster:
// Build partitions the database by rendezvous hashing and hosts
// cfg.Shards × cfg.Replicas engine instances behind a Local transport.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, errNoShards
	}
	if cfg.Factory == nil {
		return nil, errNoFactory
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	base := cfg.BaseName
	if base == "" {
		base = cfg.Factory().Name()
	}
	c := &Coordinator{
		cfg:  cfg,
		name: fmt.Sprintf("%s-x%d", base, cfg.Shards),
	}
	c.lat = newHistograms(cfg.Shards)
	return c, nil
}

// NewWithTransport returns a coordinator over an externally managed
// transport — a test stub, or a future network client. partitions maps
// each of the transport's shards to its ascending global graph-id list
// (what a lost shard's degradation reports). Build is a no-op: the
// remote shards own their engines.
func NewWithTransport(cfg Config, t Transport, partitions [][]int) (*Coordinator, error) {
	if t == nil {
		return nil, errNoTransport
	}
	if len(partitions) != t.NumShards() {
		return nil, fmt.Errorf("cluster: %d partitions for %d shards", len(partitions), t.NumShards())
	}
	base := cfg.BaseName
	if base == "" && cfg.Factory != nil {
		base = cfg.Factory().Name()
	}
	if base == "" {
		base = "cluster"
	}
	cfg.Shards = t.NumShards()
	c := &Coordinator{
		cfg:        cfg,
		name:       fmt.Sprintf("%s-x%d", base, cfg.Shards),
		transport:  t,
		partitions: partitions,
		external:   true,
	}
	for _, p := range partitions {
		c.dbLen += len(p)
	}
	c.lat = newHistograms(cfg.Shards)
	return c, nil
}

func newHistograms(n int) []*obs.Histogram {
	hs := make([]*obs.Histogram, n)
	for i := range hs {
		hs[i] = obs.NewHistogram()
	}
	return hs
}

// Name implements core.Engine: "<inner engine>-x<shards>".
func (c *Coordinator) Name() string { return c.name }

// Build implements core.Engine: partition the database, build every
// shard replica's engine over its sub-database, stand up the Local
// transport. A no-op on NewWithTransport coordinators.
func (c *Coordinator) Build(db *graph.Database, opts core.BuildOptions) error {
	if c.external {
		return nil
	}
	partitions := groupByShard(partition(db, c.cfg.Shards), c.cfg.Shards)
	replicas := make([][]*Shard, c.cfg.Shards)
	for s := range replicas {
		replicas[s] = make([]*Shard, c.cfg.Replicas)
		for r := range replicas[s] {
			sh, err := NewShard(s, c.cfg.Factory(), db, partitions[s], c.cfg.ShardConcurrency, opts)
			if err != nil {
				return fmt.Errorf("cluster: build shard %d replica %d: %w", s, r, err)
			}
			replicas[s][r] = sh
		}
	}
	local, err := NewLocal(replicas)
	if err != nil {
		return err
	}
	c.transport, c.local = local, local
	c.partitions, c.dbLen = partitions, db.Len()
	return nil
}

// IndexMemory implements core.Engine: the summed index footprint of
// every hosted replica (replicas are real memory, not bookkeeping);
// 0 for external transports, whose shards own their memory.
func (c *Coordinator) IndexMemory() int64 {
	if c.local == nil {
		return 0
	}
	var total int64
	for s := range c.local.replicas {
		for _, sh := range c.local.replicas[s] {
			total += sh.IndexMemory()
		}
	}
	return total
}

// Partitions returns the per-shard ascending global graph-id lists
// (nil before Build on a local coordinator). Callers must not modify.
func (c *Coordinator) Partitions() [][]int { return c.partitions }

// LocalTransport returns the in-process transport for kill/revive
// control in tests and operations; nil when the transport is external.
func (c *Coordinator) LocalTransport() *Local { return c.local }

// ShardP99 returns the shard's observed p99 successful-attempt latency
// (0 until any attempt succeeded).
func (c *Coordinator) ShardP99(shard int) time.Duration { return c.lat[shard].Quantile(0.99) }

// Query implements core.Engine: fan out, retry, hedge, merge, degrade.
func (c *Coordinator) Query(q *graph.Graph, opts core.QueryOptions) *core.Result {
	c.stats.queries.Add(1)
	if c.transport == nil {
		return &core.Result{
			Err:         core.NewShardError(c.name, -1, nil, errNotBuilt),
			Fingerprint: telemetry.Compute(q),
		}
	}
	if opts.Fingerprint == 0 {
		opts.Fingerprint = telemetry.Compute(q)
	}

	// Parent live handle: reuse the caller's (the server pre-registers
	// and owns merging/deregistration, like every engine's trackInflight
	// contract) or register our own against the registry.
	parent := opts.Handle
	if parent == nil && opts.Inflight != nil {
		parent = opts.Inflight.Register(inflight.RegisterOptions{
			Engine:      c.name,
			Fingerprint: uint64(opts.Fingerprint),
		})
		opts.Cancel = parent.MergeCancel(opts.Cancel)
		defer opts.Inflight.Deregister(parent)
		opts.Handle = parent
	}
	parent.SetPhase(inflight.PhaseFused)
	parent.SetGraphsTotal(c.dbLen)

	// Per-shard options: each shard attempt registers its own sub-handle,
	// and the shard deadline withholds the merge reserve from the
	// caller's budget.
	sub := opts
	sub.Handle = nil
	if !opts.Deadline.IsZero() {
		if d := opts.Deadline.Add(-c.mergeReserve()); d.After(time.Now()) {
			sub.Deadline = d
		}
	}
	parentCancel := opts.Cancel

	n := c.transport.NumShards()
	parts := make([]*core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		if len(c.partitions[s]) == 0 {
			parts[s] = &core.Result{}
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The fan-out goroutine is a process boundary: a panic here
			// (not in the engines, which guard themselves) must degrade
			// the shard, never unwind the runtime.
			defer func() {
				if v := recover(); v != nil {
					parts[s] = nil
					errs[s] = fmt.Errorf("coordinator panic: %v", v)
				}
			}()
			parts[s], errs[s] = c.queryShard(s, q, sub, parentCancel)
		}(s)
	}
	wg.Wait()

	merged := core.MergeResults(parts)
	merged.Fingerprint = opts.Fingerprint
	var shardErrs []*core.QueryError
	for s := 0; s < n; s++ {
		if parts[s] != nil {
			continue
		}
		c.stats.shardsLost.Add(1)
		merged.Skipped += len(c.partitions[s])
		shardErrs = append(shardErrs, core.NewShardError(c.name, s, c.partitions[s], errs[s]))
	}
	if len(shardErrs) > 0 {
		merged.Degraded = true
		c.stats.degradedQueries.Add(1)
		// Shard-loss entries lead so the cap can never silently eat them.
		merged.GraphErrors = append(shardErrs, merged.GraphErrors...)
		if len(shardErrs) == n {
			// Nothing survived: that is a failed query, not a degraded one.
			merged.Err = shardErrs[0]
		}
	}
	merged.CapGraphErrors()
	c.stats.errorsTruncated.Add(uint64(merged.GraphErrorsTruncated))
	parent.AddCandidates(merged.Candidates)
	parent.AddAnswers(len(merged.Answers))
	return merged
}

// queryShard runs the bounded-retry loop for one shard: up to
// MaxAttempts rounds, decorrelated-jitter backoff between them, replica
// rotation across rounds. A non-nil result means the shard answered
// (possibly a partial under its deadline); nil + error means the shard
// is lost for this query.
func (c *Coordinator) queryShard(shard int, q *graph.Graph, opts core.QueryOptions, parentCancel <-chan struct{}) (*core.Result, error) {
	reps := c.transport.Replicas(shard)
	var lastErr error
	prev := c.retryBase()
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
			if !c.backoff(&prev, opts.Deadline, parentCancel) {
				break
			}
		}
		res, err := c.round(shard, attempt%reps, reps, q, opts, parentCancel)
		if err == nil && res.Err == nil {
			return res, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = res.Err
		}
		if budget.Cancelled(parentCancel) {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrShardUnavailable
	}
	return nil, lastErr
}

// attemptCtl is one in-flight attempt's cancellation surface: stop is
// the coordinator-side cancel (hedge loser, parent teardown), h the
// registry handle remote cancellation arrives on, done closes when the
// attempt's goroutine finishes (releasing the fan-in goroutine).
type attemptCtl struct {
	h        *inflight.Handle
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func (a *attemptCtl) cancel() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.h.Cancel()
}

type reply struct {
	res    *core.Result
	err    error
	dur    time.Duration
	hedged bool
	ctl    *attemptCtl
}

// round issues one attempt at the primary replica and, if it outlives
// the hedge delay, one duplicate at the next replica. The first clean
// response wins and the other attempt is cancelled; transport errors
// and engine-boundary failures both wait for the slower attempt before
// reporting the round failed.
func (c *Coordinator) round(shard, primary, reps int, q *graph.Graph, opts core.QueryOptions, parentCancel <-chan struct{}) (*core.Result, error) {
	ch := make(chan reply, 2)
	launch := func(replica int, hedged bool) *attemptCtl {
		ctl := &attemptCtl{stop: make(chan struct{}), done: make(chan struct{})}
		ctl.h = c.registry(&opts).Register(inflight.RegisterOptions{
			Engine:      fmt.Sprintf("%s#s%d", c.name, shard),
			Fingerprint: uint64(opts.Fingerprint),
			Verdict:     "shard",
		})
		sub := opts
		sub.Inflight = nil
		sub.Handle = ctl.h
		sub.Cancel = fanInCancel(ctl.done, parentCancel, ctl.stop, ctl.h.CancelChan())
		go func() {
			defer close(ctl.done)
			defer c.registry(&opts).Deregister(ctl.h)
			start := time.Now()
			res, err := c.attempt(shard, replica, q, sub)
			ch <- reply{res: res, err: err, dur: time.Since(start), hedged: hedged, ctl: ctl}
		}()
		return ctl
	}

	ctls := []*attemptCtl{launch(primary, false)}
	outstanding := 1

	var hedgeC <-chan time.Time
	if d := c.hedgeDelay(shard); d >= 0 && reps > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var failed reply
	sawFailure := false
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil && r.res.Err == nil {
				for _, ctl := range ctls {
					if ctl != r.ctl {
						ctl.cancel()
					}
				}
				if r.hedged {
					c.stats.hedgeWins.Add(1)
				}
				c.lat[shard].Record(r.dur)
				return r.res, nil
			}
			if !sawFailure {
				failed, sawFailure = r, true
			}
		case <-hedgeC:
			hedgeC = nil
			if outstanding == 1 && !budget.Cancelled(parentCancel) {
				c.stats.hedges.Add(1)
				ctls = append(ctls, launch((primary+1)%reps, true))
				outstanding++
			}
		}
	}
	return failed.res, failed.err
}

// attempt carries one transport call, converting a panic at the
// transport boundary (including injected chaos panics) into a transient
// error the retry loop can absorb.
func (c *Coordinator) attempt(shard, replica int, q *graph.Graph, sub core.QueryOptions) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("%w: shard %d attempt panicked: %v", ErrShardUnavailable, shard, v)
		}
	}()
	res, err = c.transport.Query(shard, replica, q, sub)
	if res == nil && err == nil {
		err = fmt.Errorf("%w: shard %d transport returned neither result nor error", ErrShardUnavailable, shard)
	}
	return res, err
}

// backoff sleeps the decorrelated-jitter interval — uniform in
// [base, 3*prev], capped — before the next round. It reports false when
// the retry should be abandoned instead: the caller cancelled, or the
// deadline leaves no room for another attempt.
func (c *Coordinator) backoff(prev *time.Duration, deadline time.Time, cancel <-chan struct{}) bool {
	base, ceil := c.retryBase(), c.retryCap()
	hi := 3 * *prev
	if hi < base {
		hi = base
	}
	d := base
	if span := int64(hi - base); span > 0 {
		d += time.Duration(rand.Int64N(span + 1))
	}
	if d > ceil {
		d = ceil
	}
	*prev = d
	if !deadline.IsZero() {
		remain := time.Until(deadline)
		if remain <= base {
			return false
		}
		if d > remain {
			d = remain
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// hedgeDelay returns how long to wait before hedging a shard attempt,
// or a negative duration when hedging is off.
func (c *Coordinator) hedgeDelay(shard int) time.Duration {
	switch {
	case c.cfg.HedgeAfter < 0:
		return -1
	case c.cfg.HedgeAfter > 0:
		return c.cfg.HedgeAfter
	}
	h := c.lat[shard]
	if h.Count() < hedgeWarmup {
		return hedgeColdDelay
	}
	d := h.Quantile(0.99)
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
	}
	return d
}

func (c *Coordinator) registry(opts *core.QueryOptions) *inflight.Registry { return opts.Inflight }

func (c *Coordinator) maxAttempts() int {
	if c.cfg.MaxAttempts > 0 {
		return c.cfg.MaxAttempts
	}
	return defaultMaxAttempts
}

func (c *Coordinator) retryBase() time.Duration {
	if c.cfg.RetryBase > 0 {
		return c.cfg.RetryBase
	}
	return defaultRetryBase
}

func (c *Coordinator) retryCap() time.Duration {
	if c.cfg.RetryCap > 0 {
		return c.cfg.RetryCap
	}
	return defaultRetryCap
}

func (c *Coordinator) mergeReserve() time.Duration {
	switch {
	case c.cfg.MergeReserve > 0:
		return c.cfg.MergeReserve
	case c.cfg.MergeReserve < 0:
		return 0
	}
	return defaultMergeReserve
}

// fanInCancel merges up to three cancellation sources into one channel.
// nil sources are dropped; with one live source it is returned directly
// (no goroutine). The merge goroutine exits when any source fires or
// when done closes (the attempt finished — nothing left to cancel).
func fanInCancel(done <-chan struct{}, a, b, c <-chan struct{}) <-chan struct{} {
	live := make([]<-chan struct{}, 0, 3)
	for _, src := range []<-chan struct{}{a, b, c} {
		if src != nil {
			live = append(live, src)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		if len(live) == 2 {
			select {
			case <-live[0]:
			case <-live[1]:
			case <-done:
			}
			return
		}
		select {
		case <-live[0]:
		case <-live[1]:
		case <-live[2]:
		case <-done:
		}
	}()
	return merged
}
