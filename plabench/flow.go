package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"plabi"
	"plabi/internal/audit"
	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/etl"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// sourceNames are the scenario's sources in registration order.
var sourceNames = []string{"hospital", "familydoctors", "healthagency", "laboratory", "municipality"}

// scenarioSources wraps a dataset's tables as the scenario's sources.
func scenarioSources(ds *workload.Dataset) []*etl.Source {
	return []*etl.Source{
		etl.NewSource("hospital", "hospital", ds.Prescriptions),
		etl.NewSource("familydoctors", "familydoctors", ds.FamilyDoctor),
		etl.NewSource("healthagency", "healthagency", ds.DrugCost),
		etl.NewSource("laboratory", "laboratory", ds.LabResults),
		etl.NewSource("municipality", "municipality", ds.Residents),
	}
}

// currentSources copies an engine's sources at their current versions,
// the inputs of a fresh rebuild.
func currentSources(e *core.Engine) ([]*etl.Source, error) {
	var out []*etl.Source
	for _, name := range sourceNames {
		s, ok := e.Source(name)
		if !ok {
			return nil, fmt.Errorf("engine has no source %q", name)
		}
		out = append(out, copySource(s))
	}
	return out, nil
}

// copySource returns a source holding the same table versions. Engines
// swap a source's tables when they apply a delta, so every engine gets
// its own copy.
func copySource(s *etl.Source) *etl.Source {
	cp := &etl.Source{Name: s.Name, Owner: s.Owner, Tables: map[string]*relation.Table{}}
	for tn, t := range s.Tables {
		cp.Tables[tn] = t
	}
	return cp
}

// engineSpec is what a workload adds to the scenario build.
type engineSpec struct {
	// configure runs on the empty engine (the segment store).
	configure func(*core.Engine)
	// release runs ReleaseSource on every source table.
	release bool
	// extraPLAs and extraReports are registered after the scenario's,
	// followed by a fresh DeriveMetaReports when reports were added.
	extraPLAs    string
	extraReports []*report.Definition
	// precompile compiles every (report, role) program, as plabid does
	// for each tenant.
	precompile bool
}

// built is one engine set up by build.
type built struct {
	e *core.Engine
	// ready is the time from an empty engine to ready-to-serve; full adds
	// the cold render of every requested pair.
	ready, full time.Duration
	// renders are the cold render latencies; cold their outputs.
	renders []time.Duration
	cold    map[readKey]string
	// released holds ReleaseSource's output per table.
	released map[string]*relation.Table
	// x made the cold renders.
	x *renderer
}

// build sets one engine up the way the scenario builds a deployment —
// sources, scenario PLAs, the guarded healthcare ETL, the standard
// reports, derived meta-reports (the steps of core.BuildHealthcareEngine
// over pre-generated sources) — plus the spec's additions, then renders
// every key once cold. With a tracer it also replays each ETL step and
// compiles every key's program before the cold renders.
func (r *run) build(tr *tracer, srcs []*etl.Source, spec engineSpec, keys []readKey) (*built, error) {
	req := tr.req()
	root := tr.start(req, 0, "core.build")
	defer root.end()
	start := time.Now()
	e := core.New()
	if spec.configure != nil {
		spec.configure(e)
	}
	for _, s := range srcs {
		e.AddSource(copySource(s))
	}
	sp := tr.start(req, root.id, "policy.add_plas")
	if err := e.AddPLAs(core.ScenarioPLAs); err != nil {
		return nil, fmt.Errorf("add PLAs: %w", err)
	}
	sp.end()
	b := &built{e: e, cold: map[readKey]string{}}
	// A traced build always releases, so enforce.release is measured on
	// every workload; a release leaves the engine unchanged.
	if spec.release || tr != nil {
		sp = tr.start(req, root.id, "enforce.release")
		b.released = map[string]*relation.Table{}
		se := e.SourceEnforcer()
		for _, s := range srcs {
			for name, t := range s.Tables {
				rel, _, err := se.Release(t)
				if err != nil {
					return nil, fmt.Errorf("release %s: %w", name, err)
				}
				b.released[name] = rel
			}
		}
		sp.end()
	}
	sp = tr.start(req, root.id, "etl.run")
	if _, err := e.RunETL(core.HealthcarePipeline(e), false); err != nil {
		return nil, fmt.Errorf("healthcare ETL: %w", err)
	}
	sp.end()
	if tr != nil {
		if err := replaySteps(tr, req, sp.id, e); err != nil {
			return nil, err
		}
	}
	for _, d := range core.StandardReports() {
		if err := e.DefineReport(d); err != nil {
			return nil, fmt.Errorf("define %s: %w", d.ID, err)
		}
	}
	sp = tr.start(req, root.id, "metareport.derive")
	if _, err := e.DeriveMetaReports(); err != nil {
		return nil, fmt.Errorf("derive meta-reports: %w", err)
	}
	sp.end()
	if spec.extraPLAs != "" {
		if err := e.AddPLAs(spec.extraPLAs); err != nil {
			return nil, fmt.Errorf("extra PLAs: %w", err)
		}
	}
	if len(spec.extraReports) > 0 {
		for _, d := range spec.extraReports {
			if err := e.DefineReport(d); err != nil {
				return nil, fmt.Errorf("define %s: %w", d.ID, err)
			}
		}
		if _, err := e.DeriveMetaReports(); err != nil {
			return nil, fmt.Errorf("derive meta-reports: %w", err)
		}
	}
	if spec.precompile {
		if _, err := e.Precompile(); err != nil {
			return nil, fmt.Errorf("precompile: %w", err)
		}
	}
	b.ready = time.Since(start)
	if tr != nil {
		for _, k := range keys {
			sp := tr.start(req, root.id, "compile.program")
			if _, err := e.CompileReport(k.report, k.c); err != nil {
				return nil, fmt.Errorf("compile %s: %w", k, err)
			}
			sp.end()
		}
	}
	var sink *os.File
	if tr != nil {
		f, err := r.traceSink(fmt.Sprintf("build-%d", req))
		if err != nil {
			return nil, err
		}
		sink = f
	}
	b.x = newRenderer(e, sink)
	defer b.x.close()
	for _, k := range keys {
		enf, lat, err := b.x.render(tr, k)
		if err != nil {
			return nil, fmt.Errorf("cold render %s: %w", k, err)
		}
		b.renders = append(b.renders, lat)
		b.cold[k] = canonEnforced(enf)
	}
	b.full = time.Since(start)
	return b, nil
}

// stepClass maps an ETL step's operation to its span name.
func stepClass(op string) string {
	switch op {
	case "entity-resolution":
		return "etl.er"
	default:
		return "etl." + op
	}
}

// replaySteps runs a fresh copy of the healthcare pipeline's steps one
// by one on a fresh staging context under the engine's PLA guard,
// timing each step's Run. Staging stays in memory.
func replaySteps(tr *tracer, req, parent uint64, e *core.Engine) error {
	ectx := etl.NewContext(enforce.NewPLAGuard(e.Policies))
	for _, st := range core.HealthcarePipeline(e).Steps {
		sp := tr.start(req, parent, stepClass(st.Op()))
		err := st.Run(ectx)
		sp.end()
		if err != nil {
			return fmt.Errorf("replay step %s: %w", st.Name(), err)
		}
	}
	return nil
}

// renderer renders reads on one engine. In a traced window it replays
// every render's layers below core: the enforcer's render, the report
// SQL, the provenance trace of its rows, an audit append to the
// renderer's own JSONL sink, and a compliance check of the same pair.
type renderer struct {
	e   *core.Engine
	log *audit.Log
	// traced counts the traced renders on e, and the others sum their
	// enforcement outputs.
	traced, rowsIn, masked, suppressed atomic.Int64
	// label prefixes the correlation ids of traced renders; events is
	// the engine's audit event count under them, set by finish.
	label  string
	events int
}

// renderers numbers renderers, so their correlation ids never collide.
var renderers atomic.Int64

// newRenderer wraps e; sink, when non-nil, receives the audit appends
// of traced renders.
func newRenderer(e *core.Engine, sink *os.File) *renderer {
	x := &renderer{e: e, log: audit.NewLog(), label: fmt.Sprintf("plabench-%d", renderers.Add(1))}
	if sink != nil {
		x.log.SetSink(sink)
	}
	return x
}

// render renders k on the engine and returns the result and its
// latency; with a tracer the render's layers are replayed after it.
func (x *renderer) render(tr *tracer, k readKey) (*enforce.Enforced, time.Duration, error) {
	return x.renderUnder(tr, tr.req(), 0, k)
}

// renderUnder is render with its core.render span under parent in
// request req.
func (x *renderer) renderUnder(tr *tracer, req, parent uint64, k readKey) (*enforce.Enforced, time.Duration, error) {
	ctx := context.Background()
	if tr != nil {
		ctx = plabi.WithCorrelationID(ctx, fmt.Sprintf("%s-%d", x.label, req))
	}
	root := tr.start(req, parent, "core.render")
	t0 := time.Now()
	var enf *enforce.Enforced
	err := safely(func() (err error) {
		enf, err = x.e.RenderContext(ctx, k.report, k.c)
		return err
	})
	lat := time.Since(t0)
	root.end()
	if err != nil || tr == nil {
		return enf, lat, err
	}
	x.traced.Add(1)
	x.rowsIn.Add(int64(enf.Table.NumRows() + enf.SuppressedRows))
	x.masked.Add(int64(enf.MaskedCells))
	x.suppressed.Add(int64(enf.SuppressedRows))
	if err := x.replay(tr, req, root.id, k); err != nil {
		return enf, lat, fmt.Errorf("replay %s: %w", k, err)
	}
	return enf, lat, nil
}

// replay times the layers below one render of k.
func (x *renderer) replay(tr *tracer, req, parent uint64, k readKey) error {
	ctx := context.Background()
	def, ok := x.e.Reports.Get(k.report)
	if !ok {
		return fmt.Errorf("unknown report %q", k.report)
	}
	es := tr.start(req, parent, "enforce.render")
	if _, err := x.e.Enforcer().RenderContext(ctx, def, k.c); err != nil {
		return err
	}
	es.end()
	ss := tr.start(req, es.id, "sql.exec")
	raw, err := x.e.Catalog.Query(def.Query)
	if err != nil {
		return err
	}
	ss.end()
	ps := tr.start(req, es.id, "provenance.trace")
	for i := 0; i < raw.NumRows(); i++ {
		if _, err := x.e.Tracer.TraceRow(raw, i); err != nil {
			return err
		}
	}
	ps.end()
	as := tr.start(req, parent, "audit.append")
	if _, err := x.log.AppendChecked(ctx, audit.Event{Kind: "render", Actor: k.c.Name, Object: k.report,
		Detail: fmt.Sprintf("role=%s purpose=%s", k.c.Role, k.c.Purpose)}); err != nil {
		return err
	}
	as.end()
	return x.check(tr, k)
}

// check times one compliance check of k.
func (x *renderer) check(tr *tracer, k readKey) error {
	cs := tr.start(tr.req(), 0, "metareport.check")
	_, err := x.e.CheckReportComplianceContext(context.Background(), k.report, k.c)
	cs.end()
	return err
}

// close flushes and closes the replay audit sink.
func (x *renderer) close() error { return x.log.CloseSink() }

// traceSink creates the JSONL file a traced run's audit appends go to;
// an untraced run gets none.
func (r *run) traceSink(label string) (*os.File, error) {
	if !r.traced {
		return nil, nil
	}
	return os.Create(filepath.Join(r.dir, "replay-"+label+".audit.jsonl"))
}

// setupReps sets the workload's engine up SetupReps times, each from an
// empty engine after a collection, and records setup_s and build_s. The
// last repetition is kept, and traced in a traced run. drop, when
// non-nil, runs after a repetition's engine is let go.
func (r *run) setupReps(srcs []*etl.Source, specFor func(rep int) engineSpec, keys []readKey, drop func(rep int) error) (*built, error) {
	var ready, full []time.Duration
	var last *built
	for rep := 0; rep < r.sz.SetupReps; rep++ {
		if last != nil {
			last = nil
			if drop != nil {
				if err := drop(rep - 1); err != nil {
					return nil, err
				}
			}
		}
		runtime.GC()
		var tr *tracer
		if rep == r.sz.SetupReps-1 {
			tr = r.tr
		}
		b, err := r.build(tr, srcs, specFor(rep), keys)
		if err != nil {
			return nil, err
		}
		ready = append(ready, b.ready)
		full = append(full, b.full)
		last = b
	}
	r.recordSetup(ready, full)
	runtime.GC()
	return last, nil
}

// finish counts the audit events the engine recorded under the
// correlation ids of the renderer's traced renders, and lets the engine
// go; call it once the renderer is done.
func (x *renderer) finish() {
	for _, ev := range x.e.Audit.Events() {
		if strings.HasPrefix(ev.Trace, x.label+"-") {
			x.events++
		}
	}
	x.e = nil
}

// recordRenderLayers sets the per-layer metrics of the render path from
// the traced spans and the counts of the finished renderers.
func (r *run) recordRenderLayers(xs ...*renderer) {
	tr := r.tr
	r.layer["core.render_self_p50_ms"] = ms(tr.p50("core.render", true))
	r.layer["enforce.render_p50_ms"] = ms(tr.p50("enforce.render", false))
	r.layer["enforce.self_p50_ms"] = ms(tr.p50("enforce.render", true))
	r.layer["sql.exec_p50_ms"] = ms(tr.p50("sql.exec", false))
	r.layer["provenance.trace_p50_ms"] = ms(tr.p50("provenance.trace", false))
	appends := tr.durations("audit.append", false)
	r.layer["audit.append_p50_us"] = float64(percentile(appends, 0.50)) / 1e3
	r.layer["audit.append_p99_us"] = float64(percentile(appends, 0.99)) / 1e3
	r.layer["metareport.check_p50_ms"] = ms(tr.p50("metareport.check", false))
	var traced, rowsIn, masked, suppressed, events float64
	for _, x := range xs {
		traced += float64(x.traced.Load())
		rowsIn += float64(x.rowsIn.Load())
		masked += float64(x.masked.Load())
		suppressed += float64(x.suppressed.Load())
		events += float64(x.events)
	}
	r.layer["enforce.rows_in_per_render"] = ratio(rowsIn, traced)
	r.layer["enforce.cells_masked_per_render"] = ratio(masked, traced)
	r.layer["enforce.rows_suppressed_per_render"] = ratio(suppressed, traced)
	r.layer["audit.events_per_render"] = ratio(events, traced)
}

// recordBuildLayers sets the per-layer metrics of the build path: means
// per traced build of the ETL steps, PLA registration, source release
// and meta-report derivation, and the median program compilation.
func (r *run) recordBuildLayers() {
	tr := r.tr
	builds := float64(len(tr.durations("core.build", false)))
	per := func(name string) float64 { return ratio(ms(tr.total(name)), builds) }
	steps := map[string]float64{}
	var sum float64
	for _, s := range []string{"extract", "cleanse", "er", "join"} {
		steps[s] = per("etl." + s)
		sum += steps[s]
		r.layer["etl."+s+"_ms"] = steps[s]
	}
	r.layer["etl.er_share"] = ratio(steps["er"], sum)
	r.layer["policy.add_plas_ms"] = per("policy.add_plas")
	r.layer["metareport.derive_ms"] = per("metareport.derive")
	r.layer["compile.program_p50_ms"] = ms(tr.p50("compile.program", false))
	if rel := tr.durations("enforce.release", false); len(rel) > 0 {
		r.layer["enforce.release_ms"] = ms(median(rel))
	}
}

// cacheCounters records plan-cache and fold counters between two points.
type cacheCounters struct {
	hits, misses, foldHits, foldMisses uint64
}

func engineCounters(e *core.Engine) cacheCounters {
	st := e.CacheStats()
	c := e.Obs().Snapshot().Counters
	return cacheCounters{hits: st.Hits, misses: st.Misses,
		foldHits: c["compile.fold.hits"], foldMisses: c["compile.fold.misses"]}
}

// recordCacheRates sets the plan and fold hit rates between two points.
func (r *run) recordCacheRates(before, after cacheCounters) {
	r.layer["enforce.plan_hit_rate"] = ratio(float64(after.hits-before.hits),
		float64(after.hits-before.hits+after.misses-before.misses))
	r.layer["compile.fold_hit_rate"] = ratio(float64(after.foldHits-before.foldHits),
		float64(after.foldHits-before.foldHits+after.foldMisses-before.foldMisses))
}

// --- deltas ---

// deltaStats collects the delta batches one writer applied.
type deltaStats struct {
	// lat is each batch's latency from its due time; late is how late
	// the writer issued it.
	lat, late                  []time.Duration
	appendCall, correctionCall []time.Duration
	incremental, rebuilt       int
	retained                   []float64
}

// apply applies one batch due at due and records it.
func (r *run) apply(tr *tracer, e *core.Engine, d delta, due time.Time, st *deltaStats) {
	name := "etl.delta.append"
	if d.correction {
		name = "etl.delta.correction"
	}
	before := e.CacheStats().Entries
	r.op()
	issued := time.Now()
	sp := tr.start(tr.req(), 0, name)
	var res etl.DeltaResult
	err := safely(func() (err error) {
		res, err = e.ApplyDelta(context.Background(), d.batch)
		return err
	})
	sp.end()
	done := time.Now()
	if err != nil {
		r.fail("apply delta (%s): %v", name, err)
		return
	}
	st.lat = append(st.lat, done.Sub(due))
	st.late = append(st.late, issued.Sub(due))
	if d.correction {
		st.correctionCall = append(st.correctionCall, done.Sub(issued))
	} else {
		st.appendCall = append(st.appendCall, done.Sub(issued))
	}
	st.incremental += res.StepsIncremental
	st.rebuilt += res.StepsRebuilt
	if before > 0 {
		st.retained = append(st.retained, float64(e.CacheStats().Entries)/float64(before))
	}
}

// safely runs f, reporting a panic in the program as an error, so the
// run counts it as a failed operation and goes on.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// burst applies batches back to back, after a collection: each is due
// when the previous one returned.
func (r *run) burst(tr *tracer, e *core.Engine, stream []delta) *deltaStats {
	st := &deltaStats{}
	runtime.GC()
	due := time.Now()
	for _, d := range stream {
		r.apply(tr, e, d, due, st)
		due = time.Now()
	}
	return st
}

// recordDeltas sets the delta metrics of a writer's batches.
func (r *run) recordDeltas(st *deltaStats) {
	r.e2e["delta_p50_ms"] = ms(percentile(st.lat, 0.50))
	r.e2e["delta_p90_ms"] = ms(percentile(st.lat, 0.90))
	r.layer["etl.delta.append_p50_ms"] = ms(median(st.appendCall))
	r.layer["etl.delta.correction_p50_ms"] = ms(median(st.correctionCall))
	r.layer["etl.delta.incremental_frac"] = ratio(float64(st.incremental), float64(st.incremental+st.rebuilt))
	r.layer["enforce.plan_retained"] = medianFloat(st.retained)
	r.layer["gen.late_p90_ms"] = ms(percentile(st.late, 0.90))
}

// --- oracles ---

// checkRebuild renders every key on e and on a fresh rebuild from e's
// current sources under the same spec, and counts each differing pair
// as a failed operation (delta ≡ rebuild, or memory ≡ segment when the
// spec drops the segment store).
func (r *run) checkRebuild(e *core.Engine, spec engineSpec, keys []readKey, what string) error {
	srcs, err := currentSources(e)
	if err != nil {
		return err
	}
	ref, err := r.build(nil, srcs, spec, keys)
	if err != nil {
		return fmt.Errorf("%s reference build: %w", what, err)
	}
	r.compare(e, ref.cold, keys, what)
	return nil
}

// compare renders every key on e and checks it against want.
func (r *run) compare(e *core.Engine, want map[readKey]string, keys []readKey, what string) {
	for _, k := range keys {
		enf, err := e.RenderContext(context.Background(), k.report, k.c)
		if err != nil {
			r.op()
			r.fail("%s: render %s: %v", what, k, err)
			continue
		}
		r.check(canonEnforced(enf) == want[k], "%s: %s differs", what, k)
	}
}

// kAnonymous reports whether every combination of the quasi-identifier
// values occurs in at least k rows of t.
func kAnonymous(t *relation.Table, k int, quasi ...string) bool {
	var idx []int
	for _, q := range quasi {
		i := t.Schema.Index(q)
		if i < 0 {
			return false
		}
		idx = append(idx, i)
	}
	groups := map[string]int{}
	for _, row := range t.Rows {
		var key strings.Builder
		for _, i := range idx {
			key.WriteString(row[i].String())
			key.WriteByte(0x1f)
		}
		groups[key.String()]++
	}
	for _, n := range groups {
		if n < k {
			return false
		}
	}
	return true
}

// catalogDigest hashes every registered relation's name, schema and
// rows.
func catalogDigest(e *core.Engine) string {
	h := sha256.New()
	names := e.Catalog.TableNames()
	sort.Strings(names)
	for _, name := range names {
		t, _ := e.Catalog.Table(name)
		fmt.Fprintf(h, "%s %v %d\n", name, t.Schema, t.NumRows())
		for _, row := range t.Rows {
			for _, v := range row {
				h.Write([]byte(v.String()))
				h.Write([]byte{0x1f})
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canon is the comparable form of one render, shared by in-process and
// wire results: a refused render keeps only its blocking decisions, as
// plabid's error envelope does.
type canon struct {
	Blocked    bool       `json:"blocked,omitempty"`
	Columns    []string   `json:"columns,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
	Total      int        `json:"total,omitempty"`
	Decisions  []string   `json:"decisions,omitempty"`
	Masked     int        `json:"masked,omitempty"`
	Suppressed int        `json:"suppressed,omitempty"`
}

func (c canon) String() string {
	data, _ := json.Marshal(c) // canon holds only strings and ints
	return string(data)
}

func decisionString(outcome, rule, subject string, plas []string, detail string) string {
	return strings.Join([]string{outcome, rule, subject, strings.Join(plas, ","), detail}, "|")
}

func engineDecisions(ds []enforce.Decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = decisionString(d.Outcome.String(), d.Rule, d.Subject, d.PLAs, d.Detail)
	}
	return out
}

// canonEnforced is the comparable form of an in-process render.
func canonEnforced(enf *enforce.Enforced) string {
	if blocked := enforce.Blocked(enf.Decisions); len(blocked) > 0 {
		return canon{Blocked: true, Decisions: engineDecisions(blocked)}.String()
	}
	c := canon{Total: enf.Table.NumRows(), Decisions: engineDecisions(enf.Decisions),
		Masked: enf.MaskedCells, Suppressed: enf.SuppressedRows}
	for _, col := range enf.Table.Schema.Columns {
		c.Columns = append(c.Columns, col.Name+":"+col.Type.String())
	}
	for _, row := range enf.Table.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		c.Rows = append(c.Rows, cells)
	}
	return c.String()
}
