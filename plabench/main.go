// Command plabench is plabi's repository benchmark: one harness over the
// whole PLA-enforced BI flow of the paper (Fig. 1) — source release,
// guarded ETL with entity resolution, warehouse, report rendering under
// enforcement, audit — measured end to end and, in a separate traced
// run, layer by layer.
//
// Run it from the repository root through its build script:
//
//	bash plabench/run.sh --workload build --seed 1 --seconds 10 --trace 0
//
// Workloads (sizes are prescriptions; every engine uses the default
// options and plabid its default tenant settings, except cold_storage's
// segment store):
//
//   - build: batch, sequential, 100k. Repeated full builds: ReleaseSource
//     on every source table, AddSource/AddPLAs, the guarded healthcare
//     ETL, DefineReport and DeriveMetaReports, one cold render of every
//     (report, consumer) pair.
//   - dashboard: closed loop, 2 clients against plabid on loopback with
//     tenants alpha (2k) and beta (20k, plus a report-level mask PLA);
//     70% renders with rows shipped, 30% checks.
//   - refresh: 100k engine; open-loop writer of seeded delta batches at
//     4/s (80% appends, 20% corrections) beside one closed-loop reader.
//     It is left out of BENCHMARK.json while the race described on
//     runRefresh makes its runs fail.
//   - cold_storage: 100k engine whose staging tables all spill to
//     segments; one closed-loop client renders the aggregate reports and
//     a range-predicate report zone maps can prune.
//
// Every workload prints every end-to-end metric (see e2eMetrics): the
// set-up and build of its engines, the reads it serves and the source
// deltas it applies. Workloads whose window is read-only apply a fixed
// closed-loop burst of delta batches after the window, so their delta
// figures cover the same code at their own sizes. Every output is
// checked against an oracle; mismatches count as failed operations.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a traced run (see layerMetrics), and
// the spans are written to the -out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"read_rps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"delta_p50_ms", "ms"},
	{"delta_p90_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"serve.overhead_p50_ms", "ms"},
	{"core.render_self_p50_ms", "ms"},
	{"enforce.render_p50_ms", "ms"},
	{"enforce.self_p50_ms", "ms"},
	{"enforce.plan_hit_rate", "ratio"},
	{"enforce.plan_retained", "ratio"},
	{"enforce.release_ms", "ms"},
	{"enforce.rows_in_per_render", "count"},
	{"enforce.cells_masked_per_render", "count"},
	{"enforce.rows_suppressed_per_render", "count"},
	{"compile.program_p50_ms", "ms"},
	{"compile.fold_hit_rate", "ratio"},
	{"sql.exec_p50_ms", "ms"},
	{"relation.segment.bytes_per_read", "bytes"},
	{"relation.segment.partitions_per_read", "count"},
	{"relation.segment.pruned_frac", "ratio"},
	{"relation.segment_over_memory", "x"},
	{"provenance.trace_p50_ms", "ms"},
	{"audit.append_p50_us", "us"},
	{"audit.append_p99_us", "us"},
	{"audit.events_per_render", "count"},
	{"etl.extract_ms", "ms"},
	{"etl.cleanse_ms", "ms"},
	{"etl.er_ms", "ms"},
	{"etl.join_ms", "ms"},
	{"etl.er_share", "ratio"},
	{"etl.delta.incremental_frac", "ratio"},
	{"etl.delta.append_p50_ms", "ms"},
	{"etl.delta.correction_p50_ms", "ms"},
	{"policy.add_plas_ms", "ms"},
	{"metareport.derive_ms", "ms"},
	{"metareport.check_p50_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"gen.late_p90_ms", "ms"},
	{"failed_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"build":        runBuild,
	"dashboard":    runDashboard,
	"refresh":      runRefresh,
	"cold_storage": runColdStorage,
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: build, dashboard, refresh or cold_storage")
	seed := flag.Int64("seed", 1, "seed of the generated data, requests and delta batches")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for audit sinks, segment files and span dumps")
	flag.Parse()

	res, err := execute(*name, *seed, *seconds, *trace == 1, *out, defaultSizes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "plabench: %v\n", err)
		os.Exit(1)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// execute runs one workload and assembles its result line.
func execute(name string, seed int64, seconds float64, trace bool, out string, sz sizes) (*resultLine, error) {
	drive, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := newRun(name, seed, time.Duration(seconds*float64(time.Second)), trace, dir, sz)
	err := drive(r)
	if trace {
		if werr := r.tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); werr != nil && err == nil {
			err = werr
		}
	}
	// The spans survive the run; audit sinks and segment files do not.
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return r.result()
}

// result assembles the result line from the recorded metrics.
func (r *run) result() (*resultLine, error) {
	defs, vals := e2eMetrics, r.e2e
	if r.traced {
		r.layer["failed_frac"] = float64(r.failed.Load()) / float64(max(r.attempted.Load(), 1))
		defs, vals = layerMetrics, r.layer
	}
	res := &resultLine{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operation", r.name)
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			if !r.traced {
				return nil, fmt.Errorf("workload %s did not measure %s", r.name, d.name)
			}
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, msg := range r.failures() {
		fmt.Fprintf(os.Stderr, "plabench: %s: failed: %s\n", r.name, msg)
	}
	return res, nil
}
