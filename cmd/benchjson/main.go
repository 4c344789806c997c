// Command benchjson turns the output of the core benchmark suite
//
//	go test -run '^$' -bench '^BenchmarkCore' -benchmem .
//
// into BENCH_core.json: one record per benchmark plus the speedups of
// each execution mode over the reference baseline measured in the same
// run — vectorized over the seed's row-at-a-time operators (mode=row),
// vectorized join over the nested-loop baseline
// (BenchmarkCoreJoinNested), and the production render — residual
// program with folded replay (mode=compiled) — over the interpreted
// vectorized render. Recording both sides of
// every ratio in a single run keeps the perf trajectory honest: no number
// in the file was taken on a different machine, commit, or load.
//
// With -check, the tool enforces the acceptance floors at the largest
// scale: the hash join must beat the nested-loop reference and the
// batched render must beat the row-at-a-time reference by at least -min
// (default 5.0), and the compiled render must beat the vectorized render
// by at least -min-compiled (default 1.5); and the ETL pipeline at 100k
// rows must take at most 40× its time at 10k rows. CI fails the bench
// job on a violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Family      string  `json:"family"`
	N           int     `json:"n"`
	Mode        string  `json:"mode,omitempty"`
	Storage     string  `json:"storage,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (pruned_segments,
	// peak_alloc_bytes, pruned_frac, ...) keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Speedup is one mode-over-baseline ratio at one scale.
type Speedup struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	// Baseline names the denominator: "row" or "nested" under the
	// vectorized numerator, "vectorized" under the compiled one.
	Baseline   string  `json:"baseline"`
	FastNs     float64 `json:"fast_ns"`
	BaselineNs float64 `json:"baseline_ns"`
	Speedup    float64 `json:"speedup"`
}

// Report is the BENCH_core.json / BENCH_scale.json document.
type Report struct {
	Suite      string      `json:"suite"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups"`
	Scale      *ScaleRow   `json:"scale,omitempty"`
}

// ScaleRow condenses the out-of-core suite at its largest measured scale
// into the numbers the scale-bench lane gates on and the README quotes.
type ScaleRow struct {
	N int `json:"n"`
	// SegmentNs / MemoryNs are the storage=segment and storage=memory
	// render times from the same run.
	SegmentNs float64 `json:"segment_ns"`
	MemoryNs  float64 `json:"memory_ns,omitempty"`
	// Peak sampled HeapAlloc during each render loop.
	PeakAllocBytes       float64 `json:"peak_alloc_bytes,omitempty"`
	MemoryPeakAllocBytes float64 `json:"memory_peak_alloc_bytes,omitempty"`
	// Zone-map pruning on the selective-filter scan.
	PrunedSegments float64 `json:"pruned_segments"`
	SegmentsTotal  float64 `json:"segments_total"`
	PruneFraction  float64 `json:"prune_fraction"`
}

func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// parseLine parses one go-test benchmark result line — the name, the
// iteration count, then value/unit pairs, e.g.
//
//	BenchmarkCoreScanPruned/n=50000-8  2  8109238 ns/op  0.75 pruned_frac  14018960 B/op  21879 allocs/op
//
// ns/op, B/op and allocs/op land in dedicated fields; any other unit
// (custom b.ReportMetric output, which go test interleaves between
// ns/op and the -benchmem columns) goes into Metrics keyed by unit.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: trimProcs(f[0]), Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp, seenNs = v, true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "MB/s":
			// throughput of bytes-processing benchmarks; not used here
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	if !seenNs {
		return Benchmark{}, false
	}
	for _, seg := range strings.Split(b.Name, "/") {
		switch {
		case strings.HasPrefix(seg, "Benchmark"):
			// Core families drop the whole BenchmarkCore prefix; other
			// suites (BenchmarkDeltaRefresh) just drop Benchmark.
			b.Family = strings.TrimPrefix(strings.TrimPrefix(seg, "BenchmarkCore"), "Benchmark")
		case strings.HasPrefix(seg, "n="):
			b.N, _ = strconv.Atoi(seg[2:])
		case strings.HasPrefix(seg, "mode="):
			b.Mode = seg[5:]
		case strings.HasPrefix(seg, "storage="):
			b.Storage = seg[8:]
		}
	}
	return b, true
}

// trimProcs drops the trailing -<GOMAXPROCS> go test appends to the last
// name segment.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// speedups derives every same-run ratio the suite supports: vectorized
// vs row for each (family, n), vectorized join vs the nested-loop
// baseline family, a compiled family (e.g. RenderCompiled) vs the
// vectorized mode of the family it specializes (Render), and the
// segment-backed storage mode vs its in-memory twin (a ratio below 1.0
// is the expected out-of-core slowdown, recorded, not gated).
func speedups(benchmarks []Benchmark) []Speedup {
	type key struct {
		family  string
		n       int
		mode    string
		storage string
	}
	ns := map[key]float64{}
	for _, b := range benchmarks {
		ns[key{b.Family, b.N, b.Mode, b.Storage}] = b.NsPerOp
	}
	var out []Speedup
	for _, b := range benchmarks {
		if b.Storage == "segment" {
			if base, ok := ns[key{b.Family, b.N, b.Mode, "memory"}]; ok && base > 0 {
				out = append(out, Speedup{Family: b.Family, N: b.N, Baseline: "memory",
					FastNs: b.NsPerOp, BaselineNs: base, Speedup: base / b.NsPerOp})
			}
			continue
		}
		switch b.Mode {
		case "vectorized":
			if base, ok := ns[key{b.Family, b.N, "row", ""}]; ok && base > 0 {
				out = append(out, Speedup{Family: b.Family, N: b.N, Baseline: "row",
					FastNs: b.NsPerOp, BaselineNs: base, Speedup: base / b.NsPerOp})
			}
			if base, ok := ns[key{b.Family + "Nested", b.N, "", ""}]; ok && base > 0 {
				out = append(out, Speedup{Family: b.Family, N: b.N, Baseline: "nested",
					FastNs: b.NsPerOp, BaselineNs: base, Speedup: base / b.NsPerOp})
			}
		case "compiled":
			parent := strings.TrimSuffix(b.Family, "Compiled")
			if base, ok := ns[key{parent, b.N, "vectorized", ""}]; ok && base > 0 {
				out = append(out, Speedup{Family: b.Family, N: b.N, Baseline: "vectorized",
					FastNs: b.NsPerOp, BaselineNs: base, Speedup: base / b.NsPerOp})
			}
		case "delta":
			if base, ok := ns[key{b.Family, b.N, "rebuild", ""}]; ok && base > 0 {
				out = append(out, Speedup{Family: b.Family, N: b.N, Baseline: "rebuild",
					FastNs: b.NsPerOp, BaselineNs: base, Speedup: base / b.NsPerOp})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		if out[i].N != out[j].N {
			return out[i].N < out[j].N
		}
		return out[i].Baseline < out[j].Baseline
	})
	return out
}

// scaleSummary condenses the out-of-core families at their largest
// measured scale into one ScaleRow, or nil when the input has none.
func scaleSummary(benchmarks []Benchmark) *ScaleRow {
	maxN := 0
	for _, b := range benchmarks {
		if (b.Family == "RenderSegment" || b.Family == "ScanPruned") && b.N > maxN {
			maxN = b.N
		}
	}
	if maxN == 0 {
		return nil
	}
	row := &ScaleRow{N: maxN}
	for _, b := range benchmarks {
		if b.N != maxN {
			continue
		}
		switch {
		case b.Family == "RenderSegment" && b.Storage == "segment":
			row.SegmentNs = b.NsPerOp
			row.PeakAllocBytes = b.Metrics["peak_alloc_bytes"]
		case b.Family == "RenderSegment" && b.Storage == "memory":
			row.MemoryNs = b.NsPerOp
			row.MemoryPeakAllocBytes = b.Metrics["peak_alloc_bytes"]
		case b.Family == "ScanPruned":
			row.PrunedSegments = b.Metrics["pruned_segments"]
			row.SegmentsTotal = b.Metrics["segments_total"]
			row.PruneFraction = b.Metrics["pruned_frac"]
		}
	}
	return row
}

// checkScale enforces the scale-bench lane's floors: the segment-backed
// render must have been measured, and zone-map pruning must skip at
// least minPrune of the partitions on the selective-filter scan.
func checkScale(row *ScaleRow, minPrune float64) error {
	if row == nil {
		return fmt.Errorf("no RenderSegment/ScanPruned benchmarks in input")
	}
	if row.SegmentNs == 0 {
		return fmt.Errorf("missing segment-backed render measurement at n=%d", row.N)
	}
	if row.SegmentsTotal == 0 {
		return fmt.Errorf("missing pruned-scan measurement at n=%d", row.N)
	}
	if row.PruneFraction < minPrune {
		return fmt.Errorf("pruning skipped only %.0f%% of segments at n=%d (%g of %g, floor %.0f%%)",
			row.PruneFraction*100, row.N, row.PrunedSegments, row.SegmentsTotal, minPrune*100)
	}
	return nil
}

// checkDelta enforces the incremental-refresh floors at the largest
// measured scale: the delta-mode refresh must be at least minDelta× the
// full rebuild measured in the same run, and the render plan cache must
// have retained at least minRetained of its entries across a delta
// batch (per-table-epoch invalidation; generation-keyed discard would
// score zero).
func checkDelta(benchmarks []Benchmark, sp []Speedup, minDelta, minRetained float64) error {
	if err := enforceFloor(sp, "DeltaRefresh", "rebuild", minDelta); err != nil {
		return err
	}
	maxN, retained := 0, -1.0
	for _, b := range benchmarks {
		if b.Family == "DeltaRefresh" && b.Mode == "delta" && b.N > maxN {
			if v, ok := b.Metrics["cache_retained"]; ok {
				maxN, retained = b.N, v
			}
		}
	}
	if retained < 0 {
		return fmt.Errorf("missing cache_retained metric on the delta-mode benchmark")
	}
	if retained < minRetained {
		return fmt.Errorf("plan cache retained only %.0f%% of entries across a delta at n=%d (floor %.0f%%)",
			retained*100, maxN, minRetained*100)
	}
	return nil
}

// maxETLScaling caps the vectorized ETL time at n=100000 over its time
// at n=10000. A pipeline linear in its input scales 10×; entity
// resolution that scores every blocked candidate scaled 75×.
const maxETLScaling = 40.0

// check enforces the acceptance floors: at the largest measured scale,
// the hash join must be ≥ min× the nested-loop baseline, the batched
// render ≥ min× the row-at-a-time baseline, and the compiled render
// ≥ minCompiled× the vectorized render; and the ETL pipeline must scale
// from 10k to 100k rows within maxETLScaling.
func check(benchmarks []Benchmark, sp []Speedup, min, minCompiled float64) error {
	floors := []struct {
		family, baseline string
		floor            float64
	}{
		{"Join", "nested", min},
		{"Render", "row", min},
		{"RenderCompiled", "vectorized", minCompiled},
	}
	for _, f := range floors {
		if err := enforceFloor(sp, f.family, f.baseline, f.floor); err != nil {
			return err
		}
	}
	return checkETLScaling(benchmarks)
}

// checkETLScaling enforces maxETLScaling on the vectorized ETL family.
func checkETLScaling(benchmarks []Benchmark) error {
	ns := map[int]float64{}
	for _, b := range benchmarks {
		if b.Family == "ETL" && b.Mode == "vectorized" {
			ns[b.N] = b.NsPerOp
		}
	}
	small, large := ns[10000], ns[100000]
	if small == 0 || large == 0 {
		return fmt.Errorf("missing vectorized ETL measurement at n=10000 and n=100000")
	}
	if r := large / small; r > maxETLScaling {
		return fmt.Errorf("ETL at n=100000 takes %.1fx its n=10000 time (ceiling %.0fx)", r, maxETLScaling)
	}
	return nil
}

// enforceFloor checks one family's speedup over one baseline at the
// largest measured scale.
func enforceFloor(sp []Speedup, family, baseline string, floor float64) error {
	best := Speedup{}
	for _, s := range sp {
		if s.Family == family && s.Baseline == baseline && s.N > best.N {
			best = s
		}
	}
	if best.N == 0 {
		return fmt.Errorf("missing %s-vs-%s measurement", family, baseline)
	}
	if best.Speedup < floor {
		return fmt.Errorf("%s at n=%d is only %.2fx the %s baseline (floor %.1fx)",
			family, best.N, best.Speedup, baseline, floor)
	}
	return nil
}

func main() {
	in := flag.String("in", "-", "benchmark output to parse ('-' for stdin)")
	out := flag.String("out", "BENCH_core.json", "where to write the JSON report")
	suite := flag.String("suite", "core", "suite label recorded in the report")
	doCheck := flag.Bool("check", false, "fail unless the 100k join/render speedup floors and the ETL scaling ceiling hold")
	doCheckScale := flag.Bool("check-scale", false, "fail unless the segment render was measured and the pruning floor holds")
	doCheckDelta := flag.Bool("check-delta", false, "fail unless the delta-over-rebuild refresh floor and the plan-cache retention floor hold")
	min := flag.Float64("min", 5.0, "vectorized-over-reference speedup floor enforced by -check")
	minCompiled := flag.Float64("min-compiled", 1.5, "compiled-over-vectorized render floor enforced by -check")
	minPrune := flag.Float64("min-prune", 0.5, "pruned-segment fraction floor enforced by -check-scale")
	minRetained := flag.Float64("min-retained", 0.5, "plan-cache retention floor across a delta enforced by -check-delta")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	benchmarks, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	rep := Report{
		Suite:      *suite,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benchmarks,
		Speedups:   speedups(benchmarks),
		Scale:      scaleSummary(benchmarks),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, s := range rep.Speedups {
		fmt.Printf("%-10s n=%-7d vs %-6s %6.2fx\n", s.Family, s.N, s.Baseline, s.Speedup)
	}
	if rep.Scale != nil {
		fmt.Printf("scale n=%d: segment render %.0f ns, pruning %.0f/%.0f segments (%.0f%%), peak heap %.1f MB (in-memory %.1f MB)\n",
			rep.Scale.N, rep.Scale.SegmentNs, rep.Scale.PrunedSegments, rep.Scale.SegmentsTotal,
			rep.Scale.PruneFraction*100, rep.Scale.PeakAllocBytes/1e6, rep.Scale.MemoryPeakAllocBytes/1e6)
	}
	if *doCheckScale {
		if err := checkScale(rep.Scale, *minPrune); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("scale floors hold (pruning >= %.0f%%)\n", *minPrune*100)
	}
	if *doCheckDelta {
		if err := checkDelta(rep.Benchmarks, rep.Speedups, *min, *minRetained); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("delta floors hold (>= %.1fx vs rebuild, cache retention >= %.0f%%)\n", *min, *minRetained*100)
	}
	if *doCheck {
		if err := check(rep.Benchmarks, rep.Speedups, *min, *minCompiled); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("speedup floors hold (>= %.1fx, compiled >= %.1fx, ETL 100k/10k <= %.0fx)\n", *min, *minCompiled, maxETLScaling)
	}
}
