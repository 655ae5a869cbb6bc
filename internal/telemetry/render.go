package telemetry

import (
	"fmt"
	"io"
)

// WriteTop renders a profile snapshot as an aligned text table — the
// ?format=text body of /debug/top. One row per shape: fingerprint, shape,
// count (±error bound), latency quantiles, and the failure tallies that
// make a shape worth investigating.
func WriteTop(w io.Writer, snap ProfileSnapshot) error {
	if _, err := fmt.Fprintf(w, "workload profile: %d shapes tracked (capacity %d), %d queries seen, %d evictions\n",
		snap.Tracked, snap.Capacity, snap.Seen, snap.Evictions); err != nil {
		return err
	}
	if len(snap.Top) == 0 {
		_, err := fmt.Fprintln(w, "(no shapes recorded)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %-16s %-8s %10s %10s %10s %10s %8s\n",
		"#", "FINGERPRINT", "SHAPE", "COUNT", "P50", "P99", "ERRORS", "SHEDS"); err != nil {
		return err
	}
	for i, s := range snap.Top {
		count := fmt.Sprintf("%d", s.Count)
		if s.ErrorBound > 0 {
			count = fmt.Sprintf("%d±%d", s.Count, s.ErrorBound)
		}
		// "errors" in the table is everything that makes a query anomalous
		// besides sheds: failures, timeouts, cancels, skips, panics.
		badness := s.Errors + s.Timeouts + s.Cancelled + s.Skipped + s.Panics
		if _, err := fmt.Fprintf(w, "%-4d %-16s %-8s %10s %10s %10s %10d %8d\n",
			i+1, s.Fingerprint, s.Shape, count,
			fmtUS(s.Latency.P50US), fmtUS(s.Latency.P99US),
			badness, s.Sheds); err != nil {
			return err
		}
	}
	return nil
}

// fmtUS renders a microsecond latency human-first: µs under a millisecond,
// fractional ms under a second, seconds beyond.
func fmtUS(us int64) string {
	switch {
	case us < 1000:
		return fmt.Sprintf("%dµs", us)
	case us < 1000000:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	}
}
