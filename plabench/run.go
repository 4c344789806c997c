package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sizes fixes the data sizes and repetition counts of the workloads.
type sizes struct {
	// Prescriptions per workload engine.
	Build, Alpha, Beta, Refresh, Cold int
	// SetupReps is how many times a workload sets its engines up;
	// setup_s and build_s are the medians. Dashboard's two small tenants
	// set up in a fraction of a second, so it repeats more.
	SetupReps, DashboardReps int
	// MinBuilds is the least number of builds the build workload makes,
	// however short the window (its oracle compares builds).
	MinBuilds int
	// Delta batches the read-only workloads apply after their window.
	BuildBurst, DashboardBurst, ColdBurst int
	// DeltaRate is the refresh writer's schedule in batches per second.
	DeltaRate float64
}

// defaultSizes are the sizes the benchmark measures at.
func defaultSizes() sizes {
	return sizes{Build: 100_000, Alpha: 2_000, Beta: 20_000, Refresh: 100_000, Cold: 100_000,
		SetupReps: 3, DashboardReps: 7, MinBuilds: 2, BuildBurst: 100, DashboardBurst: 100, ColdBurst: 10,
		DeltaRate: 4}
}

// run is the state of one benchmark run: its parameters, the operation
// and failure counts, and the metrics recorded so far.
type run struct {
	name   string
	seed   int64
	window time.Duration
	traced bool
	dir    string
	sz     sizes
	// tr records spans; it is nil in untraced runs.
	tr *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	fails     []string

	e2e   map[string]float64
	layer map[string]float64
}

func newRun(name string, seed int64, window time.Duration, traced bool, dir string, sz sizes) *run {
	r := &run{name: name, seed: seed, window: window, traced: traced, dir: dir, sz: sz,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// maxFailureNotes bounds the failure messages kept for standard error.
const maxFailureNotes = 20

// op counts one attempted operation.
func (r *run) op() { r.attempted.Add(1) }

// fail counts one failed operation and keeps its reason.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fails) < maxFailureNotes {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// check counts one oracle comparison as an operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.op()
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) failures() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.fails...)
}

// halves splits the window of a traced run: the first half runs
// untraced and the second traced, so trace.overhead_frac compares the
// two within one run. An untraced run measures one untraced window.
func (r *run) halves() []*tracer {
	if r.traced {
		return []*tracer{nil, r.tr}
	}
	return []*tracer{nil}
}

// phaseWindow is the length of one measured window: the whole window
// untraced, half of it for each half of a traced run.
func (r *run) phaseWindow() time.Duration {
	if r.traced {
		return r.window / 2
	}
	return r.window
}

// setOverhead records trace.overhead_frac from the untraced and traced
// values of the same end-to-end quantity.
func (r *run) setOverhead(untraced, traced float64) {
	if untraced > 0 {
		r.layer["trace.overhead_frac"] = traced/untraced - 1
	}
}

// --- statistics ---

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = min(max(idx, 0), len(s)-1)
	return s[idx]
}

// median is the 0.5 nearest-rank percentile.
func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies is a mutex-guarded sample of durations.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) all() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.ds...)
}

// recordReads sets the read_* end-to-end metrics from a latency sample
// taken over elapsed.
func (r *run) recordReads(lat []time.Duration, elapsed time.Duration) {
	r.e2e["read_rps"] = ratio(float64(len(lat)), elapsed.Seconds())
	r.e2e["read_p50_ms"] = ms(percentile(lat, 0.50))
	r.e2e["read_p90_ms"] = ms(percentile(lat, 0.90))
	r.e2e["read_p99_ms"] = ms(percentile(lat, 0.99))
}

// recordSetup sets setup_s and build_s from the per-repetition times to
// ready-to-serve and to the end of the cold renders.
func (r *run) recordSetup(ready, full []time.Duration) {
	r.e2e["setup_s"] = median(ready).Seconds()
	r.e2e["build_s"] = median(full).Seconds()
}

// --- runtime sampling ---

// heapMetric is the heap marked live by the latest garbage collection.
const heapMetric = "/gc/heap/live:bytes"

// heapSampler tracks the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// heapSampleEvery is the heap sampling period.
const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// memSnap is a point-in-time copy of the allocation and GC counters.
type memSnap struct {
	alloc   uint64
	pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

// recordRuntime sets the runtime.* per-layer metrics for ops operations
// made between before and after.
func (r *run) recordRuntime(before, after memSnap, ops int) {
	r.layer["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	r.layer["runtime.alloc_mb_per_op"] = ratio(float64(after.alloc-before.alloc)/(1<<20), float64(ops))
}
