package main

import (
	"math"
	"sync"
	"time"
)

// runRefresh is the refresh workload: one 100k engine serving a
// closed-loop reader of every (report, consumer) pair while an
// open-loop writer applies seeded delta batches on a fixed schedule of
// 4 per second — 80% append batches (ten prescriptions and two dirty
// family-doctor references for entity resolution), 20% corrections (one
// update and one delete, the rebuilt path).
//
// setup_s and build_s are the medians over the set-up repetitions of the
// time to ready-to-serve and to the end of the cold renders. A batch's
// latency runs from its due time to ApplyDelta's return, so a stall
// shows in every later batch.
//
// Oracle: at the end the engine renders what a fresh rebuild from its
// final sources renders (delta ≡ rebuild).
//
// Known defect: a render that builds a provenance column dictionary
// while a delta commits can install a dictionary of the superseded
// prescriptions version (provenance.Tracer.colDict racing RefreshBase).
// Later renders and deltas then panic with index or slice bounds out of
// range; the workload counts each as a failed operation, and many runs
// report correct=false until that race is fixed.
func runRefresh(r *run) error {
	ds, err := generate(r.seed, r.sz.Refresh)
	if err != nil {
		return err
	}
	srcs := scenarioSources(ds)
	keys := pairs(standardReportIDs())
	n := int(math.Ceil(r.window.Seconds()*r.sz.DeltaRate)) + 2
	stream := deltaStream(subSeed(r.seed, "refresh"), ds, ds.Prescriptions.NumRows(), n)
	reads := readSequence(subSeed(r.seed, "reads"), keys, 1<<16)

	b, err := r.setupReps(srcs, func(int) engineSpec { return engineSpec{} }, keys, nil)
	if err != nil {
		return err
	}
	e := b.e
	sink, err := r.traceSink("refresh")
	if err != nil {
		return err
	}
	x := newRenderer(e, sink)

	st := &deltaStats{}
	next := 0
	var phaseP50 []float64
	var before, after cacheCounters
	var mem0, mem1 memSnap
	ops := 0
	for _, tr := range r.halves() {
		if tr == nil {
			before = engineCounters(e)
			mem0 = readMem()
		}
		heap := startHeapSampler()
		start := time.Now()
		deadline := start.Add(r.phaseWindow())
		var wg sync.WaitGroup
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := first; i < len(stream); i++ {
				due := start.Add(time.Duration(float64(i-first) / r.sz.DeltaRate * float64(time.Second)))
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				r.apply(tr, e, stream[i], due, st)
				next = i + 1
			}
		}(next)
		var lat []time.Duration
		for i := 0; time.Now().Before(deadline); i++ {
			r.op()
			_, d, err := x.render(tr, reads[i%len(reads)])
			if err != nil {
				r.fail("render %s: %v", reads[i%len(reads)], err)
				continue
			}
			lat = append(lat, d)
		}
		elapsed := time.Since(start)
		wg.Wait()
		phaseP50 = append(phaseP50, ms(median(lat)))
		if tr == nil {
			r.e2e["peak_heap_mb"] = heap.stopMB()
			r.recordReads(lat, elapsed)
			after = engineCounters(e)
			mem1 = readMem()
			ops = len(lat) + len(st.lat)
			continue
		}
		heap.stopMB()
	}
	r.recordDeltas(st)
	if err := r.checkRebuild(e, engineSpec{}, keys, "delta ≡ rebuild"); err != nil {
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
		r.recordRuntime(mem0, mem1, ops)
		r.setOverhead(phaseP50[0], phaseP50[1])
	}
	return nil
}
