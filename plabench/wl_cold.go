package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"plabi/internal/core"
	"plabi/internal/report"
)

// rangeReportID is cold_storage's extra report: a range predicate on
// rx_id, which follows the row order, so zone maps prune the partitions
// below it.
const rangeReportID = "recent-drug-consumption"

// rangeReport counts prescriptions per drug above 70% of the rx_id range.
func rangeReport(prescriptions int) *report.Definition {
	return &report.Definition{ID: rangeReportID, Title: "Recent drug consumption",
		Query: fmt.Sprintf("SELECT drug, COUNT(*) AS consumption FROM rx_wide WHERE rx_id > %d GROUP BY drug ORDER BY drug",
			prescriptions*7/10),
		Roles: []string{"analyst"}, Purpose: "quality"}
}

// aggregateReportIDs are the standard reports that aggregate.
var aggregateReportIDs = []string{"drug-consumption", "drug-spend", "disease-by-year", "age-profile"}

// segmentCounters are the segment.read.* counters at one point.
type segmentCounters struct {
	bytes, partitions, scanned, pruned uint64
}

func readSegmentCounters(e *core.Engine) segmentCounters {
	c := e.Obs().Snapshot().Counters
	return segmentCounters{bytes: c["segment.read.bytes"], partitions: c["segment.read.partitions"],
		scanned: c["segment.read.segments"], pruned: c["segment.read.pruned"]}
}

// runColdStorage is the cold_storage workload: one 100k engine whose
// staging tables all spill to on-disk segments (WithSegmentStore with a
// spill threshold of one row), read by one closed-loop client rendering
// the aggregate reports and a range-predicate report for every
// consumer.
//
// setup_s and build_s are the medians over the set-up repetitions; the
// in-memory reference engine is built outside them, and outside the
// window unless the run is traced (the traced run times the report SQL
// on it). After the window a burst of delta batches refreshes the
// segment-backed engine.
//
// Oracle: every render equals the same render on an in-memory engine
// built from the same seed (memory ≡ segment); after the burst, every
// render equals that of an in-memory rebuild from the final sources.
func runColdStorage(r *run) error {
	ds, err := generate(r.seed, r.sz.Cold)
	if err != nil {
		return err
	}
	srcs := scenarioSources(ds)
	keys := pairs(append(append([]string(nil), aggregateReportIDs...), rangeReportID))
	reads := readSequence(subSeed(r.seed, "reads"), keys, 1<<16)
	stream := deltaStream(subSeed(r.seed, "burst"), ds, ds.Prescriptions.NumRows(), r.sz.ColdBurst)
	extra := []*report.Definition{rangeReport(r.sz.Cold)}
	segDir := func(rep int) string { return filepath.Join(r.dir, fmt.Sprintf("segments-%d", rep)) }
	segSpec := func(rep int) engineSpec {
		return engineSpec{extraReports: extra, configure: func(e *core.Engine) {
			e.SetSegmentStore(segDir(rep))
			e.SetSpillThreshold(1)
		}}
	}
	memSpec := engineSpec{extraReports: extra}

	b, err := r.setupReps(srcs, segSpec, keys, func(rep int) error { return os.RemoveAll(segDir(rep)) })
	if err != nil {
		return err
	}
	e := b.e
	ref, err := r.build(nil, srcs, memSpec, keys)
	if err != nil {
		return fmt.Errorf("in-memory reference: %w", err)
	}
	for _, k := range keys {
		r.check(b.cold[k] == ref.cold[k], "cold render %s differs between memory and segments", k)
	}
	want := ref.cold
	if !r.traced {
		ref = nil // keep the in-memory engine out of the window's heap
	}
	sink, err := r.traceSink("cold")
	if err != nil {
		return err
	}
	x := newRenderer(e, sink)
	runtime.GC()

	var phaseP50 []float64
	var before, after cacheCounters
	var segBefore, segAfter segmentCounters
	var mem0, mem1 memSnap
	var untracedReads int
	i := 0
	for _, tr := range r.halves() {
		if tr == nil {
			before, segBefore = engineCounters(e), readSegmentCounters(e)
			mem0 = readMem()
		}
		heap := startHeapSampler()
		start := time.Now()
		deadline := start.Add(r.phaseWindow())
		var lat []time.Duration
		for ; time.Now().Before(deadline); i++ {
			k := reads[i%len(reads)]
			r.op()
			enf, d, err := x.render(tr, k)
			if err != nil {
				r.fail("render %s: %v", k, err)
				continue
			}
			lat = append(lat, d)
			if got := canonEnforced(enf); got != want[k] {
				r.fail("render %s differs between memory and segments", k)
			}
			if tr != nil {
				if err := memoryQuery(tr, ref.e, k); err != nil {
					r.fail("in-memory query %s: %v", k, err)
				}
			}
		}
		elapsed := time.Since(start)
		phaseP50 = append(phaseP50, ms(median(lat)))
		if tr == nil {
			r.e2e["peak_heap_mb"] = heap.stopMB()
			r.recordReads(lat, elapsed)
			after, segAfter = engineCounters(e), readSegmentCounters(e)
			mem1 = readMem()
			untracedReads = len(lat)
			continue
		}
		heap.stopMB()
	}

	ref = nil
	r.recordDeltas(r.burst(r.tr, e, stream))
	if err := r.checkRebuild(e, memSpec, keys, "memory ≡ segment after deltas"); err != nil {
		return err
	}

	if r.traced {
		if err := x.close(); err != nil {
			return err
		}
		x.finish()
		r.recordBuildLayers()
		r.recordRenderLayers(x)
		r.recordCacheRates(before, after)
		reads := float64(untracedReads)
		r.layer["relation.segment.bytes_per_read"] = ratio(float64(segAfter.bytes-segBefore.bytes), reads)
		r.layer["relation.segment.partitions_per_read"] = ratio(float64(segAfter.partitions-segBefore.partitions), reads)
		r.layer["relation.segment.pruned_frac"] = ratio(float64(segAfter.pruned-segBefore.pruned),
			float64(segAfter.scanned-segBefore.scanned))
		r.layer["relation.segment_over_memory"] = ratio(ms(r.tr.p50("sql.exec", false)), ms(r.tr.p50("sql.exec.memory", false)))
		r.recordRuntime(mem0, mem1, untracedReads)
		r.setOverhead(phaseP50[0], phaseP50[1])
	}
	return nil
}

// memoryQuery times the report SQL of k on the in-memory reference, the
// twin sql.exec on segments is compared with.
func memoryQuery(tr *tracer, ref *core.Engine, k readKey) error {
	def, ok := ref.Reports.Get(k.report)
	if !ok {
		return fmt.Errorf("unknown report %q", k.report)
	}
	sp := tr.start(tr.req(), 0, "sql.exec.memory")
	_, err := ref.Catalog.Query(def.Query)
	sp.end()
	return err
}
