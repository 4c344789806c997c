package main

import (
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: plabi
BenchmarkCoreJoin/n=1000/mode=vectorized-8         	    2000	    500000 ns/op	  100000 B/op	      50 allocs/op
BenchmarkCoreJoin/n=1000/mode=row-8                	    1000	   1000000 ns/op	  200000 B/op	    3000 allocs/op
BenchmarkCoreJoin/n=100000/mode=vectorized-8       	      20	  58000000 ns/op	68000000 B/op	      75 allocs/op
BenchmarkCoreJoin/n=100000/mode=row-8              	      15	  80000000 ns/op	95000000 B/op	  300000 allocs/op
BenchmarkCoreJoinNested/n=100000-8                 	       1	1700000000 ns/op	900000000 B/op	 2600000 allocs/op
BenchmarkCoreRender/n=100000/mode=vectorized-8     	      40	  27000000 ns/op	17000000 B/op	    1000 allocs/op
BenchmarkCoreRender/n=100000/mode=row-8            	       7	 160000000 ns/op	54000000 B/op	  420000 allocs/op
BenchmarkCoreRenderCompiled/n=100000/mode=compiled-8	     200	   6000000 ns/op	 9000000 B/op	     400 allocs/op
BenchmarkCoreETL/n=10000/mode=vectorized-8         	       5	  20000000 ns/op	21000000 B/op	   28000 allocs/op
BenchmarkCoreETL/n=100000/mode=vectorized-8        	       5	 190000000 ns/op	192000000 B/op	  272000 allocs/op
PASS
ok  	plabi	42.000s
`

func TestParse(t *testing.T) {
	bs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 10 {
		t.Fatalf("parsed %d benchmarks, want 10", len(bs))
	}
	b := bs[2]
	if b.Family != "Join" || b.N != 100000 || b.Mode != "vectorized" {
		t.Fatalf("unexpected parse: %+v", b)
	}
	if b.NsPerOp != 58000000 || b.BytesPerOp != 68000000 || b.AllocsPerOp != 75 {
		t.Fatalf("unexpected metrics: %+v", b)
	}
	nested := bs[4]
	if nested.Family != "JoinNested" || nested.Mode != "" || nested.N != 100000 {
		t.Fatalf("unexpected nested parse: %+v", nested)
	}
	compiled := bs[7]
	if compiled.Family != "RenderCompiled" || compiled.Mode != "compiled" || compiled.N != 100000 {
		t.Fatalf("unexpected compiled parse: %+v", compiled)
	}
}

func TestSpeedups(t *testing.T) {
	bs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(bs)
	want := map[string]float64{
		"Join/1000/row":                    2.0,
		"Join/100000/row":                  80.0 / 58.0,
		"Join/100000/nested":               1700.0 / 58.0,
		"Render/100000/row":                160.0 / 27.0,
		"RenderCompiled/100000/vectorized": 27.0 / 6.0,
	}
	if len(sp) != len(want) {
		t.Fatalf("got %d speedups, want %d: %+v", len(sp), len(want), sp)
	}
	for _, s := range sp {
		k := s.Family + "/" + strconv.Itoa(s.N) + "/" + s.Baseline
		w, ok := want[k]
		if !ok {
			t.Fatalf("unexpected speedup entry %q", k)
		}
		if diff := s.Speedup - w; diff > 0.01 || diff < -0.01 {
			t.Fatalf("%s: speedup %.3f, want %.3f", k, s.Speedup, w)
		}
	}
}

const scaleSample = `goos: linux
goarch: amd64
pkg: plabi
BenchmarkCoreRenderSegment/n=1000000/storage=memory-8    	       2	  14563081 ns/op	 330417224 peak_alloc_bytes	 9923556 B/op	    1140 allocs/op
BenchmarkCoreRenderSegment/n=1000000/storage=segment-8   	       2	 196491918 ns/op	 135251896 peak_alloc_bytes	139051040 B/op	  164099 allocs/op
BenchmarkCoreJoinSegment/n=1000000/storage=memory-8      	       2	  38674844 ns/op	35835064 B/op	      57 allocs/op
BenchmarkCoreJoinSegment/n=1000000/storage=segment-8     	       2	  61024490 ns/op	87001888 B/op	    5203 allocs/op
BenchmarkCoreScanPruned/n=1000000-8                      	       2	   8109238 ns/op	         0.7500 pruned_frac	        48.00 pruned_segments	        64.00 segments_total	14018960 B/op	   21879 allocs/op
PASS
ok  	plabi	42.000s
`

func TestParseCustomMetrics(t *testing.T) {
	bs, err := parse(strings.NewReader(scaleSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(bs))
	}
	seg := bs[1]
	if seg.Family != "RenderSegment" || seg.Storage != "segment" || seg.N != 1000000 {
		t.Fatalf("unexpected parse: %+v", seg)
	}
	// Custom metrics sit between ns/op and the -benchmem columns; both
	// sides must survive the interleaving.
	if seg.Metrics["peak_alloc_bytes"] != 135251896 {
		t.Fatalf("peak_alloc_bytes = %v", seg.Metrics["peak_alloc_bytes"])
	}
	if seg.BytesPerOp != 139051040 || seg.AllocsPerOp != 164099 {
		t.Fatalf("benchmem columns lost around custom metrics: %+v", seg)
	}
	pruned := bs[4]
	if pruned.Metrics["pruned_frac"] != 0.75 || pruned.Metrics["segments_total"] != 64 {
		t.Fatalf("pruned metrics: %+v", pruned.Metrics)
	}
}

func TestScaleSummaryAndCheck(t *testing.T) {
	bs, err := parse(strings.NewReader(scaleSample))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(bs)
	var storageRatios int
	for _, s := range sp {
		if s.Baseline == "memory" {
			storageRatios++
		}
	}
	if storageRatios != 2 {
		t.Fatalf("got %d segment-vs-memory ratios, want 2: %+v", storageRatios, sp)
	}
	row := scaleSummary(bs)
	if row == nil || row.N != 1000000 {
		t.Fatalf("scale summary: %+v", row)
	}
	if row.SegmentNs != 196491918 || row.MemoryNs != 14563081 {
		t.Fatalf("render times: %+v", row)
	}
	if row.PruneFraction != 0.75 || row.PrunedSegments != 48 || row.SegmentsTotal != 64 {
		t.Fatalf("pruning: %+v", row)
	}
	if row.PeakAllocBytes != 135251896 || row.MemoryPeakAllocBytes != 330417224 {
		t.Fatalf("peaks: %+v", row)
	}
	if err := checkScale(row, 0.5); err != nil {
		t.Fatalf("0.5 floor should hold: %v", err)
	}
	if err := checkScale(row, 0.8); err == nil {
		t.Fatal("0.8 floor should fail on the sample")
	}
	if err := checkScale(nil, 0.5); err == nil {
		t.Fatal("missing scale benchmarks should fail the check")
	}
	if core := scaleSummary(nil); core != nil {
		t.Fatalf("no scale families should yield nil, got %+v", core)
	}
}

func TestCheck(t *testing.T) {
	bs, _ := parse(strings.NewReader(sample))
	sp := speedups(bs)
	if err := check(bs, sp, 5.0, 1.5); err != nil {
		t.Fatalf("floors should hold on sample: %v", err)
	}
	if err := check(bs, sp, 50.0, 1.5); err == nil {
		t.Fatal("a 50x floor should fail on the sample")
	}
	if err := check(bs, sp, 5.0, 10.0); err == nil {
		t.Fatal("a 10x compiled floor should fail on the sample")
	}
	if err := check(nil, nil, 5.0, 1.5); err == nil {
		t.Fatal("missing measurements should fail the check")
	}
}

func TestCheckETLScaling(t *testing.T) {
	bs, _ := parse(strings.NewReader(sample))
	if err := checkETLScaling(bs); err != nil {
		t.Fatalf("a 9.5x ETL scaling should hold: %v", err)
	}
	quadratic, _ := parse(strings.NewReader(`BenchmarkCoreETL/n=10000/mode=vectorized-8   5   21000000 ns/op
BenchmarkCoreETL/n=100000/mode=vectorized-8  5  1580000000 ns/op
BenchmarkCoreETL/n=100000/mode=row-8         5    30000000 ns/op
`))
	if err := checkETLScaling(quadratic); err == nil {
		t.Fatal("a 75x ETL scaling should fail the ceiling")
	}
	if err := checkETLScaling(quadratic[1:]); err == nil {
		t.Fatal("a missing 10k measurement should fail the check")
	}
}
