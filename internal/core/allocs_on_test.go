//go:build !race && !sqdebug

package core

// allocCountsHold reports whether testing.AllocsPerRun measures the
// production allocation behavior: not under -race (the detector's
// instrumentation allocates) and not under -tags sqdebug (the invariant
// checkers in internal/matching snapshot candidate sets by design).
const allocCountsHold = true
