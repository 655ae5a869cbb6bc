package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the program reads. That file is the one place that names the command, the
// workloads and every metric with unit, direction and regression bound.
// The program reads units and bounds from it, so a metric it names but the
// program does not produce is an error, not a silent gap.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// measured is one metric of one run. Min and Max are set where the value
// is the best of a phase's windows; N where it rests on N samples.
type measured struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
	N     int      `json:"n,omitempty"`
}

// result is the last line a run prints: the contract with the driver.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runReport is everything kept of one run of one workload.
type runReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	result
	FailedShare float64 `json:"failed_share"`
	// Failures are the first few failure reasons, for the reader.
	Failures []string `json:"failures,omitempty"`
	// SelfChecks are the traced run's failed self-checks.
	SelfChecks []string `json:"self_checks,omitempty"`
}

// report is the JSON file one invocation writes.
type report struct {
	Schema string      `json:"schema"`
	Runs   []runReport `json:"runs"`
}

const reportSchema = "subgraphquery/benchmark/v1"

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return rep, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return rep, nil
}

// selectMetrics picks the metrics the spec lists, in its order, out of the
// values a run produced.
func selectMetrics(listed []specMetric, values map[string]measured) (map[string]measured, error) {
	out := make(map[string]measured, len(listed))
	for _, sm := range listed {
		v, ok := values[sm.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists %s, which this run did not produce", sm.Name)
		}
		v.Unit = sm.Unit
		out[sm.Name] = v
	}
	return out, nil
}

func printRun(w io.Writer, listed []specMetric, run runReport) {
	fmt.Fprintf(w, "\n%s  seed %d  %d s  trace %v  attempted %d  failed %d  failed_share %.4f\n",
		run.Workload, run.Seed, run.Seconds, run.Trace, run.Attempted, run.Failed, run.FailedShare)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, sm := range listed {
		v := run.Metrics[sm.Name]
		extra := ""
		if v.Min != nil && v.Max != nil {
			extra = fmt.Sprintf("windows %.4g..%.4g", *v.Min, *v.Max)
		}
		if v.N > 0 {
			extra = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", sm.Name, v.Value, v.Unit, extra)
	}
	tw.Flush()
	for _, f := range run.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, c := range run.SelfChecks {
		fmt.Fprintf(w, "  self-check failed: %s\n", c)
	}
}

// setupFloorSeconds: set-up times closer than this are not told apart.
const setupFloorSeconds = 0.05

// quartileSpread is the distance between the first and third quartile of
// the values as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's measure). It needs
// four values; with fewer the spread is unknown and reported as 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 4 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

// verdict judges one metric over the runs of report b against those of
// report a by their medians: regressed when b is worse by more than the
// bound, unresolved when either side's own runs spread wider than the bound.
func verdict(sm specMetric, a, b []float64) (relative float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	relative = (mb - ma) / math.Abs(ma)
	worse := relative
	if sm.Better == "higher" {
		worse = -relative
	}
	switch {
	case sm.Name == "setup_s" && math.Abs(mb-ma) < setupFloorSeconds:
		return relative, "ok"
	case quartileSpread(a) > sm.Bound || quartileSpread(b) > sm.Bound:
		return relative, "unresolved"
	case worse > sm.Bound:
		return relative, "regressed"
	}
	return relative, "ok"
}

// compareReports prints every end-to-end metric of two reports side by
// side, workload by workload, as medians over each report's untraced runs,
// and returns how many regressed.
func compareReports(w io.Writer, s *spec, a, b report) (regressed int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tdiff\tbound\tspread a\tspread b\tverdict")
	for _, sw := range s.Workloads {
		ra, rb := a.runsOf(sw.Name), b.runsOf(sw.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, sm := range s.EndToEnd {
			va, vb := valuesOf(ra, sm.Name), valuesOf(rb, sm.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, word := verdict(sm, va, vb)
			if word == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n", sw.Name, sm.Name,
				median(va), median(vb), sm.Unit, rel*100, sm.Bound*100, quartileSpread(va)*100, quartileSpread(vb)*100, word)
		}
		// failed_share is expected 0 and may not rise by more than 0.001.
		fa, fb := failedShare(ra), failedShare(rb)
		word := "ok"
		if fb > fa+0.001 {
			word = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4f\t%.4f\tshare\t\t\t\t\t%s\n", sw.Name, fa, fb, word)
	}
	tw.Flush()
	return regressed
}

// runsOf returns the report's untraced runs of one workload.
func (r report) runsOf(workload string) []runReport {
	var runs []runReport
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Trace {
			runs = append(runs, run)
		}
	}
	return runs
}

func valuesOf(runs []runReport, metric string) []float64 {
	var values []float64
	for _, run := range runs {
		if m, ok := run.Metrics[metric]; ok {
			values = append(values, m.Value)
		}
	}
	return values
}

func failedShare(runs []runReport) float64 {
	attempted, failed := 0, 0
	for _, run := range runs {
		attempted += run.Attempted
		failed += run.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
