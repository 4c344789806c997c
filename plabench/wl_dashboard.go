package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plabi/api"
	apiv1 "plabi/api/v1"
	"plabi/internal/serve"
	"plabi/internal/workload"
)

// betaMaskPLA is tenant beta's own policy bundle: a report-level
// agreement masking the flagship report's drug column.
const betaMaskPLA = `pla "beta-mask" { owner "hospital"; level report;
	scope "drug-consumption"; deny attribute drug; }`

// Request mix: of every ten requests for one (tenant, report, consumer),
// seven are renders and three checks; beta, the larger tenant, gets
// twice alpha's traffic.
const (
	rendersPerTen = 7
	betaWeight    = 2
)

// tenantSpec is one plabid tenant of the dashboard workload.
type tenantSpec struct {
	name, token string
	seed        int64
	rows        int
	extraPLAs   string
}

func dashboardTenants(seed int64, sz sizes) []tenantSpec {
	return []tenantSpec{
		{name: "alpha", token: "alpha-token", seed: tenantSeed(seed, "alpha"), rows: sz.Alpha},
		{name: "beta", token: "beta-token", seed: tenantSeed(seed, "beta"), rows: sz.Beta, extraPLAs: betaMaskPLA},
	}
}

// tenantSeed derives a tenant's data seed. plabid takes positive seeds
// (0 selects its default), so the seed is folded into [1, 2^31).
func tenantSeed(seed int64, name string) int64 {
	return 1 + (subSeed(seed, name)&math.MaxInt64)%(1<<31-1)
}

// manifest is the plabid manifest for the tenants, with default tenant
// settings.
func manifest(ts []tenantSpec) *serve.Manifest {
	m := &serve.Manifest{}
	for _, t := range ts {
		m.Tenants = append(m.Tenants, serve.TenantConfig{Name: t.name, Tokens: []string{t.token},
			Scenario: "healthcare", Seed: t.seed, Prescriptions: t.rows, ExtraPLAs: t.extraPLAs})
	}
	return m
}

// hosted is plabid serving in-process on a loopback listener.
type hosted struct {
	srv  *serve.Server
	h    *http.Server
	url  string
	done chan struct{}
}

// host builds the server's tenants and starts serving; ready is the time
// from the tenants starting to ready-to-serve.
func host(m *serve.Manifest, auditDir string) (*hosted, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(m, serve.Options{AuditDir: auditDir})
	if err != nil {
		return nil, 0, fmt.Errorf("start plabid: %w", err)
	}
	ready := time.Since(start)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, 0, err
	}
	hs := &hosted{srv: srv, h: &http.Server{Handler: srv.Handler()},
		url: "http://" + lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		_ = hs.h.Serve(lis) // returns http.ErrServerClosed on shutdown
	}()
	return hs, ready, nil
}

// close stops serving, waits for the server goroutine, and closes every
// tenant engine (flushing the audit sinks).
func (hs *hosted) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.h.Shutdown(ctx)
	<-hs.done
	if cerr := hs.srv.Close(); err == nil {
		err = cerr
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// dashReq is one dashboard request.
type dashReq struct {
	tenant int
	check  bool
	k      readKey
}

// dashboardSequence lists at least n requests in blocks holding the
// request mix exactly, in seeded order: per block, every (report,
// consumer) pair ten times per weight unit of its tenant (alpha 1, beta
// betaWeight), seven of the ten as renders and three as checks.
func dashboardSequence(seed int64, keys []readKey, n int) []dashReq {
	var block []dashReq
	for tenant, weight := range []int{1, betaWeight} {
		for w := 0; w < weight; w++ {
			for _, k := range keys {
				for i := 0; i < 10; i++ {
					block = append(block, dashReq{tenant: tenant, check: i >= rendersPerTen, k: k})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []dashReq
	for len(out) < n {
		for _, i := range rng.Perm(len(block)) {
			out = append(out, block[i])
		}
	}
	return out
}

// wire issues one request over HTTP and returns its comparable form; a
// policy refusal is a comparable result, not an error. delivered is set
// when a render shipped rows.
func wire(ctx context.Context, cl *api.Client, tenant string, q dashReq) (got string, delivered bool, err error) {
	cons := apiv1.Consumer{Name: q.k.c.Name, Role: q.k.c.Role, Purpose: q.k.c.Purpose}
	if q.check {
		resp, err := cl.Check(ctx, tenant, apiv1.CheckRequest{Report: q.k.report, Consumer: cons})
		if err != nil {
			return "", false, err
		}
		return canonCheck(resp.Compliant, wireDecisions(resp.Findings)), false, nil
	}
	resp, err := cl.Render(ctx, tenant, apiv1.RenderRequest{Report: q.k.report, Consumer: cons})
	var apiErr *apiv1.Error
	if errors.As(err, &apiErr) && apiErr.Code == apiv1.CodeBlocked {
		return canon{Blocked: true, Decisions: wireDecisions(apiErr.Decisions)}.String(), false, nil
	}
	if err != nil {
		return "", false, err
	}
	c := canon{Total: resp.TotalRows, Rows: resp.Rows, Decisions: wireDecisions(resp.Decisions),
		Masked: resp.MaskedCells, Suppressed: resp.SuppressedRows}
	for _, col := range resp.Columns {
		c.Columns = append(c.Columns, col.Name+":"+col.Type)
	}
	return c.String(), true, nil
}

func wireDecisions(ds []apiv1.Decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = decisionString(d.Outcome, d.Rule, d.Subject, d.PLAs, d.Detail)
	}
	return out
}

// canonCheck is the comparable form of a compliance check.
func canonCheck(compliant bool, findings []string) string {
	return fmt.Sprintf("compliant=%v\n%s", compliant, strings.Join(findings, "\n"))
}

// runDashboard is the dashboard workload: plabid in-process on loopback
// with tenants alpha (2k) and beta (20k plus a report-level mask PLA),
// driven by two closed-loop clients, 70% renders with rows shipped and
// 30% checks over every (report, consumer) pair, beta taking two thirds
// of the traffic. Policy refusals are correct service and are timed.
//
// setup_s is the median time plabid takes to build both tenants; build_s
// adds a cold render of every pair on both. The read metrics are the
// render latencies and the rate of renders and checks. After the window
// a burst of delta batches refreshes the beta tenant's in-process twin.
//
// Oracles: every response equals the same request on an in-process twin
// engine built like the tenant; each tenant's audit sink holds at least
// one render line per delivered render; after the burst the twin
// renders what a fresh rebuild renders.
func runDashboard(r *run) error {
	ts := dashboardTenants(r.seed, r.sz)
	keys := pairs(standardReportIDs())
	seq := dashboardSequence(subSeed(r.seed, "requests"), keys, 1<<16)
	var hs *hosted
	var ready, full []time.Duration
	// delivered counts each tenant's renders that shipped rows, on the
	// server instance serving the window.
	delivered := make([]atomic.Int64, len(ts))
	for rep := 0; rep < r.sz.DashboardReps; rep++ {
		if hs != nil {
			if err := hs.close(); err != nil {
				return err
			}
		}
		auditDir := filepath.Join(r.dir, fmt.Sprintf("audit-%d", rep))
		if err := os.MkdirAll(auditDir, 0o755); err != nil {
			return err
		}
		var rd time.Duration
		var err error
		hs, rd, err = host(manifest(ts), auditDir)
		if err != nil {
			return err
		}
		for i := range delivered {
			delivered[i].Store(0)
		}
		start := time.Now()
		for i, t := range ts {
			cl := api.NewClient(hs.url, t.token)
			for _, k := range keys {
				r.op()
				_, ok, err := wire(context.Background(), cl, t.name, dashReq{tenant: i, k: k})
				if err != nil {
					r.fail("cold render %s %s: %v", t.name, k, err)
				}
				if ok {
					delivered[i].Add(1)
				}
			}
		}
		ready = append(ready, rd)
		full = append(full, rd+time.Since(start))
	}
	r.recordSetup(ready, full)
	auditDir := filepath.Join(r.dir, fmt.Sprintf("audit-%d", r.sz.DashboardReps-1))

	// In-process twins: the oracle, and the engines traced replays run
	// on. An untraced run lets them go before the window, so its heap
	// holds what plabid holds.
	dss := make([]*workload.Dataset, len(ts))
	specs := make([]engineSpec, len(ts))
	twins := make([]*built, len(ts))
	want := make([]map[string]string, len(ts))
	xs := make([]*renderer, len(ts))
	for i, t := range ts {
		ds, err := generate(t.seed, t.rows)
		if err != nil {
			return err
		}
		dss[i] = ds
		specs[i] = engineSpec{extraPLAs: t.extraPLAs, precompile: true}
		var tr *tracer
		if i == len(ts)-1 {
			tr = r.tr // trace the larger tenant's build
		}
		b, err := r.build(tr, scenarioSources(ds), specs[i], keys)
		if err != nil {
			return fmt.Errorf("twin %s: %w", t.name, err)
		}
		want[i] = map[string]string{}
		for _, k := range keys {
			want[i]["render "+k.String()] = b.cold[k]
			decs, err := b.e.CheckReportComplianceContext(context.Background(), k.report, k.c)
			if err != nil {
				return fmt.Errorf("twin %s check %s: %w", t.name, k, err)
			}
			want[i]["check "+k.String()] = canonCheck(len(decs) == 0, engineDecisions(decs))
		}
		if !r.traced {
			continue
		}
		twins[i] = b
		sink, err := r.traceSink(t.name)
		if err != nil {
			return err
		}
		xs[i] = newRenderer(b.e, sink)
	}
	runtime.GC()

	clients := make([]*api.Client, len(ts))
	for i, t := range ts {
		clients[i] = api.NewClient(hs.url, t.token)
	}
	var renderLat []time.Duration
	var phaseP50 []float64
	var before, after cacheCounters
	var mem0, mem1 memSnap
	var elapsed time.Duration
	var ops int64
	const nClients = 2
	for _, tr := range r.halves() {
		if tr == nil {
			before = serverCounters(hs.srv)
			mem0 = readMem()
		}
		var heap *heapSampler
		if tr == nil {
			heap = startHeapSampler()
		}
		lats := make([]latencies, nClients)
		var done atomic.Int64
		deadline := time.Now().Add(r.phaseWindow())
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < nClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ctx := context.Background()
				for i := c; time.Now().Before(deadline); i += nClients {
					q := seq[i%len(seq)]
					t := ts[q.tenant]
					name := "serve.http"
					if q.check {
						name = "serve.http.check"
					}
					req := tr.req()
					sp := tr.start(req, 0, name)
					r.op()
					t0 := time.Now()
					got, ok, err := wire(ctx, clients[q.tenant], t.name, q)
					lat := time.Since(t0)
					sp.end()
					done.Add(1)
					if err != nil {
						r.fail("%s %s: %v", t.name, q.k, err)
						continue
					}
					kind := "render "
					if q.check {
						kind = "check "
					} else {
						lats[c].add(lat)
					}
					if ok {
						delivered[q.tenant].Add(1)
					}
					if got != want[q.tenant][kind+q.k.String()] {
						r.fail("%s %s%s differs from the in-process render", t.name, kind, q.k)
					}
					if tr == nil {
						continue
					}
					if q.check {
						err = xs[q.tenant].check(tr, q.k)
					} else {
						_, _, err = xs[q.tenant].renderUnder(tr, req, sp.id, q.k)
					}
					if err != nil {
						r.fail("replay %s %s: %v", t.name, q.k, err)
					}
				}
			}(c)
		}
		wg.Wait()
		var half []time.Duration
		for c := range lats {
			half = append(half, lats[c].all()...)
		}
		phaseP50 = append(phaseP50, ms(median(half)))
		if tr == nil {
			elapsed = time.Since(start)
			renderLat = half
			ops = done.Load()
			r.e2e["peak_heap_mb"] = heap.stopMB()
			after = serverCounters(hs.srv)
			mem1 = readMem()
		}
	}
	r.recordReads(renderLat, elapsed)
	r.e2e["read_rps"] = ratio(float64(ops), elapsed.Seconds()) // renders and checks

	if err := hs.close(); err != nil {
		return err
	}
	for i, t := range ts {
		n, err := renderLines(filepath.Join(auditDir, t.name+".audit.jsonl"))
		if err != nil {
			return err
		}
		r.check(int64(n) >= delivered[i].Load(), "tenant %s: audit sink holds %d render lines for %d delivered renders",
			t.name, n, delivered[i].Load())
	}

	beta := len(ts) - 1
	if twins[beta] == nil {
		b, err := r.build(nil, scenarioSources(dss[beta]), specs[beta], keys)
		if err != nil {
			return fmt.Errorf("twin %s: %w", ts[beta].name, err)
		}
		twins[beta] = b
	}
	stream := deltaStream(subSeed(r.seed, "burst"), dss[beta], dss[beta].Prescriptions.NumRows(), r.sz.DashboardBurst)
	r.recordDeltas(r.burst(r.tr, twins[beta].e, stream))
	if err := r.checkRebuild(twins[beta].e, specs[beta], keys, "delta ≡ rebuild"); err != nil {
		return err
	}

	if r.traced {
		for _, x := range xs {
			if err := x.close(); err != nil {
				return err
			}
			x.finish()
		}
		r.layer["serve.overhead_p50_ms"] = ms(r.tr.p50("serve.http", true))
		r.recordBuildLayers()
		r.recordRenderLayers(xs...)
		r.recordCacheRates(before, after)
		r.recordRuntime(mem0, mem1, int(ops))
		r.setOverhead(phaseP50[0], phaseP50[1])
	}
	return nil
}

// serverCounters sums the plan-cache and fold counters of every tenant.
func serverCounters(srv *serve.Server) cacheCounters {
	var c cacheCounters
	for k, v := range srv.MetricsSnapshot().Counters {
		switch {
		case strings.HasSuffix(k, ".cache.hits"):
			c.hits += v
		case strings.HasSuffix(k, ".cache.misses"):
			c.misses += v
		case strings.HasSuffix(k, ".compile.fold.hits"):
			c.foldHits += v
		case strings.HasSuffix(k, ".compile.fold.misses"):
			c.foldMisses += v
		}
	}
	return c
}

// renderLines counts the render events in a JSONL audit sink.
func renderLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == "render" {
			n++
		}
	}
	return n, sc.Err()
}
