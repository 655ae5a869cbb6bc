// sqbench regenerates the paper's tables and figures. Each subcommand runs
// the corresponding experiment of §IV and prints rows in the paper's
// layout; `all` runs everything.
//
// Usage:
//
//	sqbench tableV|tableVI|tableVII|tableVIII|tableIX \
//	        fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9 \
//	        | real | synthetic | cluster | all
//	        [-scale 0.02] [-queries 10] [-seed 1]
//	        [-index-budget 60s] [-query-budget 5s] [-workers 6]
//	        [-json-dir .]
//
// The real and synthetic studies also emit machine-readable
// BENCH_<dataset>.json reports (per-engine, per-query-set metrics with
// p50/p90/p99 query latency) into -json-dir; pass -json-dir "" to
// disable.
//
// Scale 1 with large budgets approaches the paper's full configuration;
// the defaults finish on a laptop in minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"subgraphquery/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 0.02, "dataset scale in (0,1]")
	queries := fs.Int("queries", 10, "queries per query set (paper: 100)")
	seed := fs.Int64("seed", 1, "random seed")
	indexBudget := fs.Duration("index-budget", 60*time.Second, "per-index build budget (paper: 24h)")
	queryBudget := fs.Duration("query-budget", 5*time.Second, "per-query budget (paper: 10m)")
	workers := fs.Int("workers", 6, "workers for the Grapes engines")
	jsonDir := fs.String("json-dir", ".", "directory for machine-readable BENCH_<dataset>.json output (empty disables)")
	clusterEngine := fs.String("cluster-engine", "CFQL", "per-shard engine for the cluster track")
	clusterShards := fs.String("cluster-shards", "1,2,4,8", "comma-separated shard counts for the cluster track")
	clusterReplicas := fs.Int("cluster-replicas", 1, "replicas per shard for the cluster track")
	fs.Parse(os.Args[2:])

	cfg := bench.Config{
		Scale:       *scale,
		QueryCount:  *queries,
		Seed:        *seed,
		IndexBudget: *indexBudget,
		QueryBudget: *queryBudget,
		Workers:     *workers,
		Out:         os.Stdout,
	}

	if cmd == "cluster" {
		if err := runCluster(cfg, *clusterEngine, *clusterShards, *clusterReplicas); err != nil {
			fmt.Fprintln(os.Stderr, "sqbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(cmd, cfg, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "sqbench:", err)
		os.Exit(1)
	}
}

// runCluster executes the per-shard-count scatter-gather track.
func runCluster(cfg bench.Config, engine, shards string, replicas int) error {
	var counts []int
	for _, part := range strings.Split(shards, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -cluster-shards entry %q: want positive integers", part)
		}
		counts = append(counts, n)
	}
	study := bench.ClusterStudyConfig{
		Engine:      engine,
		ShardCounts: counts,
		Replicas:    replicas,
	}
	fmt.Fprintf(os.Stderr, "running cluster study (scale %.3f, %d queries/set, shards %s)...\n",
		cfg.Scale, cfg.QueryCount, shards)
	rows, err := bench.RunCluster(cfg, study)
	if err != nil {
		return err
	}
	out := cfg
	out.Out = os.Stdout
	bench.RenderCluster(out, study, rows)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `sqbench regenerates the paper's experiments.

real-dataset experiments (one shared run):
  tableV     query set statistics
  tableVI    indexing time
  tableVII   memory cost
  fig2       filtering precision      fig3  filtering time
  fig4       verification time        fig5  per SI test time
  fig6       candidate graph counts   fig7  query time
  real       all of the above

synthetic experiments (one shared run):
  tableVIII  indexing time            tableIX  memory cost
  fig8       filtering precision      fig9     filtering time
  synthetic  all of the above

  shapes     mechanical pass/fail checklist of the paper's claims
  extensions every engine (incl. Table II reproductions) on one workload
  cluster    scatter-gather tier at increasing shard counts
             (-cluster-engine CFQL -cluster-shards 1,2,4,8
              -cluster-replicas 1)
  all        everything`)
}

// run executes one subcommand. jsonDir, when non-empty, receives
// machine-readable BENCH_<dataset>.json reports for the real and
// synthetic studies.
func run(cmd string, cfg bench.Config, jsonDir string) error {
	needReal := map[string]bool{
		"tableV": true, "tableVI": true, "tableVII": true,
		"fig2": true, "fig3": true, "fig4": true, "fig5": true,
		"fig6": true, "fig7": true, "real": true, "all": true,
	}
	needSynth := map[string]bool{
		"tableVIII": true, "tableIX": true, "fig8": true, "fig9": true,
		"synthetic": true, "all": true, "shapes": true,
	}
	needReal["shapes"] = true
	if cmd == "extensions" {
		fmt.Fprintf(os.Stderr, "running extensions study (scale %.3f, %d queries/set)...\n",
			cfg.Scale, cfg.QueryCount)
		rows, err := bench.RunExtensions(cfg)
		if err != nil {
			return err
		}
		out := cfg
		out.Out = os.Stdout
		bench.RenderExtensions(out, rows)
		return nil
	}
	if !needReal[cmd] && !needSynth[cmd] {
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	// Create the report directory before the (long) study runs, so a bad
	// -json-dir fails in milliseconds, not after minutes of benchmarking.
	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			return fmt.Errorf("creating -json-dir: %w", err)
		}
	}

	if needReal[cmd] {
		fmt.Fprintf(os.Stderr, "running real-dataset study (scale %.3f, %d queries/set)...\n",
			cfg.Scale, cfg.QueryCount)
		ev, err := bench.RunReal(cfg)
		if err != nil {
			return err
		}
		if jsonDir != "" {
			paths, err := bench.WriteRealJSON(jsonDir, ev)
			if err != nil {
				return fmt.Errorf("writing bench JSON: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %v\n", paths)
		}
		switch cmd {
		case "shapes":
			bench.RenderShapeReport(os.Stdout, "Real-dataset shape checks (paper claims):", ev.CheckShapes())
		case "tableV":
			ev.RenderTableV()
		case "tableVI":
			ev.RenderTableVI()
		case "tableVII":
			ev.RenderTableVII()
		case "fig2":
			ev.RenderFig2()
		case "fig3":
			ev.RenderFig3()
		case "fig4":
			ev.RenderFig4()
		case "fig5":
			ev.RenderFig5()
		case "fig6":
			ev.RenderFig6()
		case "fig7":
			ev.RenderFig7()
		default: // real, all
			ev.RenderTableV()
			fmt.Println()
			ev.RenderTableVI()
			fmt.Println()
			ev.RenderFig2()
			fmt.Println()
			ev.RenderFig3()
			fmt.Println()
			ev.RenderFig4()
			fmt.Println()
			ev.RenderFig5()
			fmt.Println()
			ev.RenderFig6()
			fmt.Println()
			ev.RenderFig7()
			fmt.Println()
			ev.RenderTableVII()
			fmt.Println()
			bench.RenderShapeReport(os.Stdout, "Real-dataset shape checks (paper claims):", ev.CheckShapes())
		}
	}

	if needSynth[cmd] {
		if cmd == "all" {
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "running synthetic study (scale %.3f, %d queries/set)...\n",
			cfg.Scale, cfg.QueryCount)
		ev, err := bench.RunSynthetic(cfg)
		if err != nil {
			return err
		}
		if jsonDir != "" {
			path, err := bench.WriteSyntheticJSON(jsonDir, ev)
			if err != nil {
				return fmt.Errorf("writing bench JSON: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		switch cmd {
		case "shapes":
			bench.RenderShapeReport(os.Stdout, "Synthetic-study shape checks (paper claims):", ev.CheckShapes())
		case "tableVIII":
			ev.RenderTableVIII()
		case "tableIX":
			ev.RenderTableIX()
		case "fig8":
			ev.RenderFig8()
		case "fig9":
			ev.RenderFig9()
		default: // synthetic, all
			ev.RenderTableVIII()
			fmt.Println()
			ev.RenderFig8()
			fmt.Println()
			ev.RenderFig9()
			fmt.Println()
			ev.RenderTableIX()
			fmt.Println()
			bench.RenderShapeReport(os.Stdout, "Synthetic-study shape checks (paper claims):", ev.CheckShapes())
		}
	}
	return nil
}
