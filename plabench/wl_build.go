package main

import (
	"runtime"
	"time"
)

// runBuild is the build workload: full builds of one 100k deployment,
// back to back for the whole window. One build releases every source
// table, registers sources and PLAs, runs the guarded ETL, defines the
// standard reports, derives the meta-reports and renders every
// (report, consumer) pair once cold.
//
// setup_s and build_s are the medians of a build's time to
// ready-to-serve and to the end of its cold renders; the read metrics
// are those cold renders. After the window one burst of delta batches
// refreshes the last build.
//
// Oracles: every build of a run yields identical catalog and render
// digests; the released residents table is 5-anonymous over (age, zip);
// after the burst the engine renders what a fresh rebuild renders.
func runBuild(r *run) error {
	ds, err := generate(r.seed, r.sz.Build)
	if err != nil {
		return err
	}
	srcs := scenarioSources(ds)
	keys := pairs(standardReportIDs())
	stream := deltaStream(subSeed(r.seed, "burst"), ds, ds.Prescriptions.NumRows(), r.sz.BuildBurst)
	spec := engineSpec{release: true}

	var ready, full, reads []time.Duration
	var readTime time.Duration
	var xs []*renderer
	var last *built
	var digest string
	var phaseFull [][]time.Duration
	heap := startHeapSampler()
	mem0 := readMem()
	builds := 0
	halves := r.halves()
	for _, tr := range halves {
		var fulls []time.Duration
		deadline := time.Now().Add(r.phaseWindow())
		minBuilds := (r.sz.MinBuilds + len(halves) - 1) / len(halves)
		for n := 0; n < minBuilds || time.Now().Before(deadline); n++ {
			last = nil // let the previous engine go before building the next
			runtime.GC()
			r.op()
			b, err := r.build(tr, srcs, spec, keys)
			if err != nil {
				return err
			}
			builds++
			last = b
			ready = append(ready, b.ready)
			full = append(full, b.full)
			fulls = append(fulls, b.full)
			reads = append(reads, b.renders...)
			for _, d := range b.renders {
				readTime += d
			}
			if tr != nil {
				b.x.finish()
				xs = append(xs, b.x)
			}
			d := catalogDigest(b.e)
			for _, k := range keys {
				d += b.cold[k]
			}
			if digest == "" {
				digest = d
			} else {
				r.check(d == digest, "build %d: catalog or render digest differs from the first build", builds)
			}
			r.check(kAnonymous(b.released["residents"], 5, "age", "zip"),
				"build %d: released residents table is not 5-anonymous over (age, zip)", builds)
		}
		phaseFull = append(phaseFull, fulls)
	}
	mem1 := readMem()
	r.e2e["peak_heap_mb"] = heap.stopMB()
	r.recordSetup(ready, full)
	r.recordReads(reads, readTime)

	st := r.burst(r.tr, last.e, stream)
	r.recordDeltas(st)
	if err := r.checkRebuild(last.e, engineSpec{}, keys, "delta ≡ rebuild"); err != nil {
		return err
	}

	if r.traced {
		r.recordBuildLayers()
		r.recordRenderLayers(xs...)
		r.recordCacheRates(cacheCounters{}, engineCounters(last.e))
		r.recordRuntime(mem0, mem1, builds)
		r.setOverhead(median(phaseFull[0]).Seconds(), median(phaseFull[1]).Seconds())
	}
	return nil
}
