// Command bench is the repository's benchmark: five closed-loop
// workloads over the paper's workflow (user build → push → pull →
// rebuild → redirect → run), end-to-end metrics measured with tracing
// off, and per-layer metrics from a traced run that observes every
// layer from outside. README.md in this directory has the tables.
//
//	bench/run.sh --workload pull --seed 1 --seconds 20 --trace 0
//
// prints the metrics by name and unit, then one JSON object as the
// last line, and exits non-zero if any op failed or any output was
// wrong. Without --workload all five run in turn.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	cfg := &config{}
	workload := flag.String("workload", "", "run one workload (publish, pull, adapt-cold, adapt-warm, adapt-farm); default all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the per-round corpus order and the round-unique application names")
	flag.Float64Var(&cfg.seconds, "seconds", referenceSeconds, "sizes the measured window: each workload's fixed round count is scaled by seconds/20")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1 and -workload: write the spans as Chrome trace JSON to this file")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for stores, caches and logs")
	sets := flag.Int("sets", 1, "1 or 2; 2 runs everything twice and compares the sets against the bounds in ./BENCHMARK.json")
	out := flag.String("out", "", "also write every result as JSON to this file")
	flag.Parse()
	cfg.traced = *trace != 0
	if *sets != 1 && *sets != 2 {
		fmt.Fprintln(os.Stderr, "bench: -sets is 1 or 2")
		os.Exit(2)
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, names, *sets, "BENCHMARK.json", *out)
	stop()
	os.Exit(code)
}

// run executes the sets and prints them; it returns the exit code.
func run(ctx context.Context, cfg *config, names []string, sets int, benchFile, out string) int {
	var all [][]*result
	ok := true
	for s := 0; s < sets; s++ {
		var set []*result
		for _, name := range names {
			res, err := runWorkload(ctx, cfg, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(res, cfg.traced)
			ok = ok && res.Failed == 0
			set = append(set, res)
		}
		all = append(all, set)
	}
	if sets == 2 && !cfg.traced {
		within, err := compareSets(all[0], all[1], benchFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		ok = ok && within
	}
	if out != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", out, err)
			return 1
		}
	}
	last, err := lastLine(all[len(all)-1], cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(last))
	if !ok {
		return 1
	}
	return 0
}

// metricsOf picks the metrics a run reports and their definitions.
func metricsOf(res *result, traced bool) (map[string]float64, []metricDef) {
	if traced {
		return res.PerLayer, perLayerDefs
	}
	return res.EndToEnd, endToEndDefs
}

// printResult prints one workload's metrics sorted by name, each with
// its unit; a traced per-op time also shows its share of the op.
func printResult(res *result, traced bool) {
	vals, defs := metricsOf(res, traced)
	fmt.Printf("# %s: %d measured rounds, %d ops with the warm-up's, %d failed\n", res.Workload, res.Rounds, res.Attempted, res.Failed)
	sorted := append([]metricDef(nil), defs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, d := range sorted {
		line := fmt.Sprintf("%-11s %-30s %14.4f %s", res.Workload, d.Name, vals[d.Name], d.Unit)
		if traced && d.Unit == "ms" && inOp(d.Name) && vals[d.Name] > 0 {
			line += fmt.Sprintf("  (%.1f%% of the op)", 100*vals[d.Name]/res.OpMs)
		}
		fmt.Println(line)
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s %s at %s: %s\n", res.Workload, f.Image, f.Step, f.Msg)
	}
}

// lastLine is the run's machine-readable summary. For one workload
// the metrics carry their own names; for several, each name is
// prefixed with its workload.
func lastLine(set []*result, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range set {
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		vals, defs := metricsOf(res, traced)
		for _, d := range defs {
			name := d.Name
			if len(set) > 1 {
				name = res.Workload + ":" + name
			}
			summary.Metrics[name] = value{vals[d.Name], d.Unit}
		}
	}
	summary.Correct = summary.Failed == 0
	return json.Marshal(summary)
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their difference as a share of the better one, and the
// bound; it reports whether every pair is within its bound. The sets
// ran the same code, so a second set that is much better is as much a
// failure to repeat as one that is much worse.
func compareSets(a, b []*result, benchFile string) (bool, error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return false, fmt.Errorf("reading the bounds: %w", err)
	}
	var def struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("decoding %s: %w", benchFile, err)
	}
	within := true
	fmt.Println("# repeatability: set 1, set 2, set 2 against set 1, bound")
	for i := range a {
		for _, d := range def.EndToEnd {
			if d.Bound == nil {
				return false, fmt.Errorf("%s: %s has no bound", benchFile, d.Name)
			}
			x, y := a[i].EndToEnd[d.Name], b[i].EndToEnd[d.Name]
			apart := math.Abs(y-x) / math.Min(x, y)
			verdict := "ok"
			if !(apart <= *d.Bound) {
				verdict, within = "OUTSIDE", false
			}
			fmt.Printf("%-11s %-16s %14.4f %14.4f %+8.2f%% %6.2f%% %s\n", a[i].Workload, d.Name, x, y, 100*(y-x)/x, 100**d.Bound, verdict)
		}
	}
	return within, nil
}
