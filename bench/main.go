// Command bench is the federation benchmark: one process hosts the DNS
// tree, every map server (real HTTP listeners on loopback, production
// defaults) and a load generator that drives the real client v2 API,
// discovery included. See README.md for the workloads, the metrics and how
// each layer is measured from outside the program.
//
//	go run ./bench                         all four workloads, bench/out/results.json
//	go run ./bench -trace 1                plus the traced run and bench/out/trace-<workload>.json
//	go run ./bench -agree                  the untraced suite twice, compared against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       one run as the driver makes it; last line is one JSON object
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	workloadName := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "request-stream seed; caller k draws from seed*2+k")
	seconds := flag.Int("seconds", defaultSeconds, "measured window per workload, seconds")
	trace := flag.Int("trace", 0, "1 adds a traced window for the per-layer metrics")
	agree := flag.Bool("agree", false, "run the untraced suite twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir holds fixtures (removed after each workload), results.json and the
// trace files. The benchmark is run from the root of a checkout and may
// write nowhere else.
var outDir = filepath.Join("bench", "out")

func run(workloadName string, seed int64, seconds int, trace, agree bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ctx := context.Background()
	window := time.Duration(seconds) * time.Second
	cfg := config{seed: seed, window: window, setups: setupsPerRun, warmup: warmupOpsPerCaller, oracle: oracleSamples, outDir: outDir}

	if workloadName != "" {
		wl, ok := findWorkload(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		if trace {
			// The driver gives one budget of seconds: a short untraced
			// window for the overhead ratio and the workload-specific
			// numbers, the rest traced; one set-up, timed by layer.
			cfg.window, cfg.traced, cfg.setups = window*2/5, window*3/5, 1
		}
		res, err := runWorkload(ctx, wl, cfg)
		if err != nil {
			return err
		}
		printResult(res)
		return printDriverLine(res, trace)
	}

	if trace {
		cfg.traced = window * 3 / 5
	}
	order := workloads
	first, err := runSuite(ctx, order, cfg)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), suiteFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: seed, Results: first,
	}); err != nil {
		return err
	}
	if !agree {
		return nil
	}
	reversed := make([]workload, len(order))
	for i, w := range order {
		reversed[len(order)-1-i] = w
	}
	second, err := runSuite(ctx, reversed, cfg)
	if err != nil {
		return err
	}
	return compare(first, second)
}

// suiteFile is bench/out/results.json.
type suiteFile struct {
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Seed      int64     `json:"seed"`
	Results   []*result `json:"results"`
}

func runSuite(ctx context.Context, order []workload, cfg config) ([]*result, error) {
	var out []*result
	for _, wl := range order {
		res, err := runWorkload(ctx, wl, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		printResult(res)
		out = append(out, res)
	}
	return out, nil
}

// printResult prints every metric by name and unit, with the sample count
// behind each timing. A percentile with fewer than ten samples beyond it is
// marked instead of printed.
func printResult(res *result) {
	fmt.Printf("== %s  seed %d  window %.0f s  attempted %d  failed %d  oracle %d/%d ok  result_digest %s\n",
		res.Workload, res.Seed, res.WindowSeconds, res.Attempted, res.Failed,
		res.OracleChecked-res.OracleRejected, res.OracleChecked, res.Digest)
	for _, specs := range [][]metricSpec{endToEndSpecs, workloadSpecs} {
		for _, s := range specs {
			r := res.EndToEnd[s.Name]
			switch {
			case r.Samples == 0:
				fmt.Printf("  %-34s %14s %-6s (absent on this workload)\n", s.Name, "-", s.Unit)
			case !r.Printed:
				fmt.Printf("  %-34s %14s %-6s n=%d, fewer than %d samples beyond it\n", s.Name, "-", s.Unit, r.Samples, minBeyond)
			default:
				fmt.Printf("  %-34s %14.4f %-6s n=%d\n", s.Name, r.Value, s.Unit, r.Samples)
			}
		}
	}
	if res.PerLayer == nil {
		return
	}
	for _, s := range layerSpecs {
		fmt.Printf("  %-34s %14.4f %-6s\n", s.Name, res.PerLayer[s.Name], s.Unit)
	}
}

// printDriverLine prints the one JSON object the driver reads: every
// end-to-end metric untraced, every per-layer metric traced.
func printDriverLine(res *result, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.OracleRejected == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	if trace {
		for _, s := range perLayerSpecs {
			line.Metrics[s.Name] = value{res.PerLayer[s.Name], s.Unit}
		}
	} else {
		for _, s := range endToEndSpecs {
			line.Metrics[s.Name] = value{res.EndToEnd[s.Name].Value, s.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// compare prints, per metric and workload, the two suites' values, their
// relative difference and the bound, and fails if any end-to-end metric
// got worse from either run to the other by more than its bound or if a
// workload's result_digest changed.
func compare(first, second []*result) error {
	byName := make(map[string]*result)
	for _, r := range second {
		byName[r.Workload] = r
	}
	var bad []string
	fmt.Printf("%-12s %-16s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, a := range first {
		b := byName[a.Workload]
		if a.Digest != b.Digest {
			bad = append(bad, fmt.Sprintf("%s result_digest %s then %s", a.Workload, a.Digest, b.Digest))
		}
		for _, s := range endToEndSpecs {
			x, y := a.EndToEnd[s.Name].Value, b.EndToEnd[s.Name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if diff > s.Bound {
				mark = "  DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s %.4g then %.4g", a.Workload, s.Name, x, y))
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", a.Workload, s.Name, x, y, 100*diff, 100*s.Bound, mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two runs disagree beyond the bounds: %v", bad)
	}
	return nil
}
