package core

import "subgraphquery/internal/inflight"

// trackInflight resolves the query's live handle at engine entry,
// mirroring the fingerprintQuery write-back pattern: a caller-provided
// Handle (the server's, or a wrapper's) is reused as-is — its owner
// merges cancellation and deregisters; otherwise, with a Registry set,
// a handle is registered here, its remote-cancellation channel is merged
// into opts.Cancel, and the returned untrack deregisters it when the
// query returns. The resolved handle is written back into opts so
// wrapped engines (Cached's inner engine) tick the same handle instead
// of registering a second one. With neither field set it returns the
// nil handle, whose methods are free no-ops.
//
// Callers invoke it after fingerprintQuery (so the handle carries the
// resolved fingerprint) and after degenerate (an empty query returns
// before doing any trackable work).
func trackInflight(engine string, opts *QueryOptions) (*inflight.Handle, func()) {
	if opts.Handle != nil {
		return opts.Handle, func() {}
	}
	if opts.Inflight == nil {
		return nil, func() {}
	}
	// h is assigned once, so untrack captures it by value: the paths above
	// allocate nothing.
	reg := opts.Inflight
	h := reg.Register(inflight.RegisterOptions{
		Engine:      engine,
		Fingerprint: uint64(opts.Fingerprint),
	})
	opts.Handle = h
	opts.Cancel = h.MergeCancel(opts.Cancel)
	return h, func() { reg.Deregister(h) }
}
