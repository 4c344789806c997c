// Command plabid-load drives mixed traffic against a plabid server and
// records the latency distribution to BENCH_serve.json: several tenants,
// a render/check mix, fixed concurrency, exact p50/p99 computed from the
// full sorted latency sample (no streaming sketch).
//
// With -addr it targets a running server (tenant tokens supplied via
// -tenants "name=token,..."); without it the harness self-hosts a
// two-tenant server in-process on a loopback listener, so CI can gate the
// serving path with no external orchestration.
//
// Exit status is non-zero when an SLO floor is violated: total p99 above
// -slo-p99-ms or error rate above -slo-error-rate. Policy refusals
// (pla_blocked) are correct service, not errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"plabi/api"
	apiv1 "plabi/api/v1"
	"plabi/internal/serve"
)

// selfHostManifest is the workload the harness serves when no -addr is
// given: two tenants with distinct bundles, one of them rate-unlimited.
func selfHostManifest() *serve.Manifest {
	return &serve.Manifest{Tenants: []serve.TenantConfig{
		{Name: "alpha", Tokens: []string{"alpha-tok"}, Scenario: "healthcare",
			Seed: 1, Prescriptions: 1200},
		{Name: "beta", Tokens: []string{"beta-tok"}, Scenario: "healthcare",
			Seed: 2, Prescriptions: 800,
			ExtraPLAs: `pla "beta-mask" { owner "hospital"; level report;
				scope "drug-consumption"; deny attribute drug; }`},
	}}
}

// opStats is the recorded distribution for one operation kind.
type opStats struct {
	Count      int     `json:"count"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MeanMs     float64 `json:"mean_ms"`
	MaxMs      float64 `json:"max_ms"`
	Blocked    int     `json:"blocked,omitempty"`
	RateLimits int     `json:"rate_limited,omitempty"`
}

// Result is the BENCH_serve.json document.
type Result struct {
	Concurrency int                `json:"concurrency"`
	DurationSec float64            `json:"duration_sec"`
	Tenants     []string           `json:"tenants"`
	RenderMix   float64            `json:"render_mix"`
	GoVersion   string             `json:"go_version"`
	Requests    int                `json:"requests"`
	Errors      int                `json:"errors"`
	ErrorRate   float64            `json:"error_rate"`
	Throughput  float64            `json:"throughput_rps"`
	Ops         map[string]opStats `json:"ops"`
	Total       opStats            `json:"total"`
	SLOP99Ms    float64            `json:"slo_p99_ms"`
	SLOErrRate  float64            `json:"slo_error_rate"`
	SLOPass     bool               `json:"slo_pass"`
}

// sample is one completed request.
type sample struct {
	op      string
	latency time.Duration
	blocked bool
	limited bool
	err     bool
}

func main() {
	addr := flag.String("addr", "", "base URL of a running plabid (empty: self-host in-process)")
	tenantsFlag := flag.String("tenants", "alpha=alpha-tok,beta=beta-tok", `tenant tokens as "name=token,..."`)
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	mix := flag.Float64("mix", 0.7, "fraction of requests that are renders (rest are checks)")
	out := flag.String("out", "BENCH_serve.json", "output file")
	sloP99 := flag.Float64("slo-p99-ms", 500, "fail when total p99 exceeds this many ms (0 disables)")
	sloErr := flag.Float64("slo-error-rate", 0.01, "fail when the error rate exceeds this fraction")
	flag.Parse()

	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Fatalf("plabid-load: %v", err)
	}

	base := *addr
	if base == "" {
		srv, url, err := selfHost()
		if err != nil {
			log.Fatalf("plabid-load: self-host: %v", err)
		}
		defer srv.close()
		base = url
		log.Printf("plabid-load: self-hosted plabid on %s", base)
	}

	clients := make(map[string]*api.Client, len(tenants))
	var names []string
	for name, tok := range tenants {
		clients[name] = api.NewClient(base, tok)
		names = append(names, name)
	}
	sort.Strings(names)

	// Warm up each tenant's decision cache and ETL-backed tables once so
	// the measured window reflects steady-state serving.
	for _, name := range names {
		if _, err := clients[name].Reports(context.Background(), name); err != nil {
			log.Fatalf("plabid-load: warmup %s: %v", name, err)
		}
	}

	renders := []apiv1.RenderRequest{
		{Report: "drug-consumption", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "quality"}},
		{Report: "age-profile", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "quality"}},
		{Report: "drug-spend", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "reimbursement"}},
		{Report: "patient-activity", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "reimbursement"}}, // blocked: exercises the envelope path
	}
	checks := []apiv1.CheckRequest{
		{Report: "drug-consumption", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "quality"}},
		{Report: "disease-by-year", Consumer: apiv1.Consumer{Name: "load", Role: "analyst", Purpose: "quality"}},
	}

	deadline := time.Now().Add(*duration)
	perWorker := make([][]sample, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var local []sample
			ctx := context.Background()
			for time.Now().Before(deadline) {
				tenant := names[rng.Intn(len(names))]
				c := clients[tenant]
				var s sample
				var err error
				start := time.Now()
				if rng.Float64() < *mix {
					s.op = "render"
					req := renders[rng.Intn(len(renders))]
					req.OmitRows = true // measure decisions, not row shipping
					_, err = c.Render(ctx, tenant, req)
				} else {
					s.op = "check"
					_, err = c.Check(ctx, tenant, checks[rng.Intn(len(checks))])
				}
				s.latency = time.Since(start)
				if err != nil {
					var apiErr *apiv1.Error
					switch {
					case errors.As(err, &apiErr) && apiErr.Code == apiv1.CodeBlocked:
						s.blocked = true // correct enforcement, not a failure
					case errors.As(err, &apiErr) && apiErr.Code == apiv1.CodeRateLimited:
						s.limited = true
					default:
						s.err = true
					}
				}
				local = append(local, s)
			}
			perWorker[w] = local
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)

	var all []sample
	for _, ws := range perWorker {
		all = append(all, ws...)
	}
	if len(all) == 0 {
		log.Fatal("plabid-load: no requests completed")
	}

	res := Result{
		Concurrency: *concurrency,
		DurationSec: elapsed.Seconds(),
		Tenants:     names,
		RenderMix:   *mix,
		GoVersion:   runtime.Version(),
		Requests:    len(all),
		Ops:         map[string]opStats{},
		SLOP99Ms:    *sloP99,
		SLOErrRate:  *sloErr,
	}
	byOp := map[string][]sample{}
	for _, s := range all {
		byOp[s.op] = append(byOp[s.op], s)
		if s.err {
			res.Errors++
		}
	}
	for op, ss := range byOp {
		res.Ops[op] = distill(ss)
	}
	res.Total = distill(all)
	res.ErrorRate = float64(res.Errors) / float64(res.Requests)
	res.Throughput = float64(res.Requests) / elapsed.Seconds()
	res.SLOPass = (*sloP99 <= 0 || res.Total.P99Ms <= *sloP99) && res.ErrorRate <= *sloErr

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		log.Fatalf("plabid-load: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("plabid-load: %v", err)
	}

	fmt.Printf("plabid-load: %d requests in %.1fs (%.0f rps, %d workers)\n",
		res.Requests, res.DurationSec, res.Throughput, res.Concurrency)
	for _, op := range []string{"render", "check"} {
		if st, ok := res.Ops[op]; ok {
			fmt.Printf("  %-6s n=%-6d p50=%.2fms p99=%.2fms mean=%.2fms blocked=%d\n",
				op, st.Count, st.P50Ms, st.P99Ms, st.MeanMs, st.Blocked)
		}
	}
	fmt.Printf("  total  p50=%.2fms p99=%.2fms errors=%d (rate %.4f) -> %s\n",
		res.Total.P50Ms, res.Total.P99Ms, res.Errors, res.ErrorRate, map[bool]string{true: "SLO pass", false: "SLO FAIL"}[res.SLOPass])

	if !res.SLOPass {
		fmt.Fprintf(os.Stderr, "plabid-load: SLO violated: p99 %.2fms (floor %.0fms), error rate %.4f (floor %.4f)\n",
			res.Total.P99Ms, *sloP99, res.ErrorRate, *sloErr)
		os.Exit(1)
	}
}

// distill sorts a sample set and extracts the exact percentiles.
func distill(ss []sample) opStats {
	lat := make([]time.Duration, len(ss))
	st := opStats{Count: len(ss)}
	var sum time.Duration
	for i, s := range ss {
		lat[i] = s.latency
		sum += s.latency
		if s.blocked {
			st.Blocked++
		}
		if s.limited {
			st.RateLimits++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	st.P50Ms = ms(percentile(lat, 0.50))
	st.P99Ms = ms(percentile(lat, 0.99))
	st.MeanMs = ms(sum / time.Duration(len(ss)))
	st.MaxMs = ms(lat[len(lat)-1])
	return st
}

// percentile returns the exact q-quantile of a sorted sample
// (nearest-rank method).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// parseTenants decodes the -tenants flag.
func parseTenants(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, tok, ok := strings.Cut(part, "=")
		if !ok || name == "" || tok == "" {
			return nil, fmt.Errorf(`bad -tenants entry %q (want "name=token")`, part)
		}
		out[name] = tok
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants declares no tenants")
	}
	return out, nil
}

// selfHosted is the in-process server used when no -addr is given.
type selfHosted struct {
	s   *serve.Server
	h   *http.Server
	lis net.Listener
}

func (sh *selfHosted) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sh.h.Shutdown(ctx)
	_ = sh.s.Close()
}

// selfHost builds the default two-tenant server on a loopback listener.
func selfHost() (*selfHosted, string, error) {
	dir, err := os.MkdirTemp("", "plabid-load-*")
	if err != nil {
		return nil, "", err
	}
	s, err := serve.New(selfHostManifest(), serve.Options{AuditDir: dir})
	if err != nil {
		return nil, "", err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Close()
		return nil, "", err
	}
	h := &http.Server{Handler: s.Handler()}
	go func() { _ = h.Serve(lis) }()
	return &selfHosted{s: s, h: h, lis: lis}, "http://" + lis.Addr().String(), nil
}
