// Command mrlegal-bench is the repository's end-to-end benchmark. It
// builds each workload's inputs from a seed, drives the same public calls
// cmd/mrlegal and cmd/mrserve make, checks every output, and prints one
// JSON result line (README.md in this directory defines every metric).
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload flow-100k --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer split, taken from spans the
// benchmark records around each call into a layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// end-to-end and per-layer names (catalogue_test.go keeps them in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of a --trace 0 run. Every workload produces
// every one of them; README.md gives each workload's definition. The
// gated times are process CPU times: on a shared host the hypervisor
// steals wall-clock time in bursts that last minutes, which no median
// within one run can cancel, and the guest kernel does not charge stolen
// time to the process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"avg_disp_sites", "sites", "lower"},
	{"disp_p999_sites", "sites", "lower"},
	{"dhpwl_pct", "%", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a --trace 1 run. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"service.eco_rtt_p50_ms", "ms", "lower"},
	{"service.eco_rtt_p99_ms", "ms", "lower"},
	{"service.job_p50_ms", "ms", "lower"},
	{"service.job_p90_ms", "ms", "lower"},
	{"iodesign.parse_s", "s", "lower"},
	{"iodesign.write_s", "s", "lower"},
	{"iodesign.input_mb", "MB", "lower"},
	{"segment.grid_build_s", "s", "lower"},
	{"core.legalize_s", "s", "lower"},
	{"core.extract_busy_s", "s", "lower"},
	{"core.enumerate_busy_s", "s", "lower"},
	{"core.evaluate_busy_s", "s", "lower"},
	{"core.realize_busy_s", "s", "lower"},
	{"core.extract_share", "ratio", "lower"},
	{"core.extract_us_per_mll", "us", "lower"},
	{"core.direct_ratio", "ratio", "higher"},
	{"core.mll_calls", "count", "lower"},
	{"core.mll_fail_ratio", "ratio", "lower"},
	{"core.insertion_points", "count", "lower"},
	{"core.prune_ratio", "ratio", "higher"},
	{"core.cells_pushed", "count", "lower"},
	{"core.retry_rounds", "count", "lower"},
	{"core.cache_hits", "count", "higher"},
	{"core.cache_misses", "count", "lower"},
	{"core.cache_invalidations", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"sched.dispatched", "count", "lower"},
	{"sched.deferred_per_dispatch", "ratio", "lower"},
	{"sched.invalidated_ratio", "ratio", "lower"},
	{"verify.check_s", "s", "lower"},
	{"netlist.hpwl_s", "s", "lower"},
	{"session.apply_p50_ms", "ms", "lower"},
	{"session.apply_p99_ms", "ms", "lower"},
	{"session.dirty_cells_per_batch", "count", "lower"},
	{"session.retries_per_batch", "count", "lower"},
	{"session.rollbacks", "count", "lower"},
	{"design.checksum_ms", "ms", "lower"},
	{"service.submit_p50_ms", "ms", "lower"},
	{"service.eco_overhead_p50_ms", "ms", "lower"},
	{"service.non2xx", "count", "lower"},
	{"jobq.wait_p50_ms", "ms", "lower"},
	{"jobq.wait_p90_ms", "ms", "lower"},
	{"jobq.run_p50_ms", "ms", "lower"},
	{"jobq.rejected", "count", "lower"},
	{"go.alloc_mb_per_unit", "MB", "lower"},
	{"go.gc_cycles_per_unit", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// summary are the figures printed to standard error in a human-readable
// table: the gated metrics and the wall-clock latencies each workload
// produces.
var summary = []metricDef{
	{"setup_s", "s", ""},
	{"setup_wall_s", "s", ""},
	{"cpu_s", "s", ""},
	{"flow_s", "s", ""},
	{"eco_rtt_p50_ms", "ms", ""},
	{"eco_rtt_p99_ms", "ms", ""},
	{"job_p50_ms", "ms", ""},
	{"job_p90_ms", "ms", ""},
	{"avg_disp_sites", "sites", ""},
	{"disp_p999_sites", "sites", ""},
	{"dhpwl_pct", "%", ""},
	{"peak_rss_mb", "MB", ""},
	{"fail_frac", "ratio", ""},
	{"steal_s", "s", ""},
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	// failures lists every correctness check that did not hold; a run
	// with any is reported as incorrect.
	failures []string
	// attempted and failed count operations: cells to place, delta
	// frames, jobs and HTTP requests (README.md).
	attempted, failed int64
	// values holds end-to-end, summary and per-layer figures by name.
	values map[string]float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"flow-100k":   func(o options) (*outcome, error) { return runFlow(o, flow100k) },
	"dense-50k":   func(o options) (*outcome, error) { return runFlow(o, dense50k) },
	"serve-mixed": runServe,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: flow-100k | dense-50k | serve-mixed | all")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mrlegal-bench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"flow-100k", "dense-50k", "serve-mixed"}
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	exit := 0
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "mrlegal-bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		if !report(name, opt, run) {
			exit = 1
		}
	}
	os.Exit(exit)
}

// report runs one workload and prints its table and result line. It
// returns false when the run errored or a correctness check failed.
func report(name string, opt options, run func(options) (*outcome, error)) bool {
	out, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrlegal-bench: %s: %v\n", name, err)
		return false
	}
	fmt.Fprintf(os.Stderr, "%s (seed %d, %s window, trace %v):\n", name, opt.seed, opt.seconds, opt.trace)
	for _, m := range summary {
		if v, ok := out.values[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-18s %14.6g %s\n", m.Name, v, m.Unit)
		} else {
			fmt.Fprintf(os.Stderr, "  %-18s %14s\n", m.Name, "n/a")
		}
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", f)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	var missing []string
	for _, m := range defs {
		v, ok := out.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		res.Correct = false
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: metrics not measured: %s\n", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrlegal-bench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}
