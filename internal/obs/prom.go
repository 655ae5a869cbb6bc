package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4), so the telemetry scrapes into
// standard dashboards.
//
// Registry names follow the "<metric>/<engine>" convention; the part
// after the first slash becomes an `engine` label. Counters keep their
// name (already *_total), gauges keep theirs, and histograms — which
// record durations — are exported as `<name>_seconds` with cumulative
// buckets, converting the registry's microsecond bucket bounds to the
// Prometheus base unit.
func WritePrometheus(w io.Writer, s Snapshot, namespace string) {
	writePromScalars(w, namespace, "counter", s.Counters)
	writePromScalars(w, namespace, "gauge", s.Gauges)
	writePromHistograms(w, namespace, s.Histograms)
}

// promInstance is one exported time series of a metric family: its engine
// label (may be empty) and its value.
type promInstance[V any] struct {
	engine string
	v      V
}

// eachPromFamily groups registry names by metric and visits the families
// sorted by metric name, each family's instances sorted by engine.
func eachPromFamily[V any](m map[string]V, visit func(metric string, instances []promInstance[V])) {
	fams := map[string][]promInstance[V]{}
	for name, v := range m {
		metric, engine := splitMetricName(name)
		fams[metric] = append(fams[metric], promInstance[V]{engine, v})
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		instances := fams[name]
		sort.Slice(instances, func(i, j int) bool { return instances[i].engine < instances[j].engine })
		visit(name, instances)
	}
}

// splitMetricName splits the registry's "<metric>/<engine>" convention and
// sanitizes the metric part to the Prometheus name charset.
func splitMetricName(name string) (metric, engine string) {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		metric, engine = name[:i], name[i+1:]
	} else {
		metric = name
	}
	return sanitizeMetricName(metric), engine
}

// sanitizeMetricName maps any character outside [a-zA-Z0-9_:] to '_' and
// prefixes a digit-leading name with '_'.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelPair renders `{engine="..."}`, optionally with an extra le pair for
// histogram buckets; empty when both parts are absent.
func labelPair(engine, le string) string {
	var parts []string
	if engine != "" {
		parts = append(parts, `engine="`+escapeLabelValue(engine)+`"`)
	}
	if le != "" {
		parts = append(parts, `le="`+le+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// writePromScalars writes one # TYPE line per counter or gauge family
// followed by its samples.
func writePromScalars(w io.Writer, namespace, typ string, m map[string]int64) {
	eachPromFamily(m, func(name string, instances []promInstance[int64]) {
		full := namespace + "_" + name
		fmt.Fprintf(w, "# TYPE %s %s\n", full, typ)
		for _, in := range instances {
			fmt.Fprintf(w, "%s%s %d\n", full, labelPair(in.engine, ""), in.v)
		}
	})
}

// formatSeconds renders a microsecond quantity in seconds with full
// precision.
func formatSeconds(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}

// writePromHistograms exports each histogram as cumulative buckets plus
// _sum and _count, per the Prometheus histogram convention.
func writePromHistograms(w io.Writer, namespace string, hists map[string]HistogramSnapshot) {
	eachPromFamily(hists, func(name string, instances []promInstance[HistogramSnapshot]) {
		full := namespace + "_" + name + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", full)
		for _, in := range instances {
			var cum uint64
			for _, b := range in.v.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket%s %d\n", full,
					labelPair(in.engine, formatSeconds(b.LeUS)), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", full, labelPair(in.engine, "+Inf"), in.v.Count)
			fmt.Fprintf(w, "%s_sum%s %s\n", full, labelPair(in.engine, ""), formatSeconds(in.v.SumUS))
			fmt.Fprintf(w, "%s_count%s %d\n", full, labelPair(in.engine, ""), in.v.Count)
		}
	})
}
