// Core performance-trajectory benchmarks: every hot path of the
// relational kernel (join, render, ETL, rewrite+execute) at three scales,
// under both execution modes in the same run, plus the nested-loop join
// baseline and the production (folded residual-program) render. cmd/benchjson
// parses the output of
//
//	go test -run '^$' -bench '^BenchmarkCore' -benchmem
//
// into BENCH_core.json with per-path mode-vs-reference speedups; the CI
// bench job archives it and benchstat gates regressions.
package plabi

import (
	"context"
	"fmt"
	"testing"

	"plabi/internal/core"
	"plabi/internal/enforce"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// coreScales are the row counts (prescriptions) each benchmark family
// runs at.
var coreScales = []int{1000, 10000, 100000}

// execModes pairs the sub-benchmark label with the mode it selects. The
// "row" rows are the seed's row-at-a-time reference numbers, recorded in
// the same run the vectorized numbers are, so speedups never compare
// across machines or commits.
var execModes = []struct {
	name string
	mode relation.ExecMode
}{
	{"vectorized", relation.ExecVectorized},
	{"row", relation.ExecRowAtATime},
}

// withMode runs fn as a sub-benchmark under each execution mode.
func withMode(b *testing.B, fn func(b *testing.B)) {
	b.Helper()
	for _, m := range execModes {
		b.Run("mode="+m.name, func(b *testing.B) {
			prev := relation.SetExecMode(m.mode)
			defer relation.SetExecMode(prev)
			fn(b)
		})
	}
}

// BenchmarkCoreJoin measures the equi-join prescriptions ⋈ drugcost with
// full lineage propagation: the vectorized interned hash join against the
// reference string-keyed hash path.
func BenchmarkCoreJoin(b *testing.B) {
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(b, n)
			l := relation.Rename(ds.Prescriptions, "p")
			r := relation.Rename(ds.DrugCost, "c")
			pred := relation.Eq(relation.ColRefExpr("p.drug"), relation.ColRefExpr("c.drug"))
			withMode(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := relation.Join(l, r, pred, relation.InnerJoin)
					if err != nil {
						b.Fatal(err)
					}
					if out.NumRows() == 0 {
						b.Fatal("empty join")
					}
				}
			})
		})
	}
}

// BenchmarkCoreJoinNested is the nested-loop baseline for the same join —
// the semantics every hash plan is verified against, and the
// like-for-like denominator for the 100k speedup claim.
func BenchmarkCoreJoinNested(b *testing.B) {
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchDataset(b, n)
			l := relation.Rename(ds.Prescriptions, "p")
			r := relation.Rename(ds.DrugCost, "c")
			pred := relation.Eq(relation.ColRefExpr("p.drug"), relation.ColRefExpr("c.drug"))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := relation.NestedLoopJoin(l, r, pred, relation.InnerJoin)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}

// benchEngineAt builds the full healthcare engine at the given
// prescription count (ETL included) under the current execution mode.
func benchEngineAt(b *testing.B, n int) *core.Engine {
	b.Helper()
	cfg := workload.DefaultConfig(42)
	cfg.Prescriptions = n
	cfg.Patients = n / 10
	cfg.LabResults = n / 10
	e, _, err := core.BuildHealthcareEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkCoreRender measures the interpreted reference render of the
// flagship drug-consumption report on its cached plan: SQL execution over
// the wide staging table, aggregation with lineage, and threshold
// enforcement on distinct-patient support, every iteration.
func BenchmarkCoreRender(b *testing.B) {
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			withMode(b, func(b *testing.B) {
				e := benchEngineAt(b, n)
				def, ok := e.Reports.Get("drug-consumption")
				if !ok {
					b.Fatal("drug-consumption not registered")
				}
				consumer := report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}
				ctx := context.Background()
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					enf, err := e.Enforcer().RenderInterpreted(ctx, def, consumer)
					if err != nil {
						b.Fatal(err)
					}
					if enf.Table.NumRows() == 0 {
						b.Fatal("all rows suppressed")
					}
				}
			})
		})
	}
}

// BenchmarkCoreRenderCompiled measures the same report through the
// production render path: policy composition specialized into a residual
// program at plan-build time, and — because the plan generations pin the
// catalog — the enforced result constant-folded on the first render and
// replayed (deep-copied) on every subsequent one, with audit logging.
// The steady-state ratio against BenchmarkCoreRender's vectorized mode
// is the compiled-over-vectorized floor cmd/benchjson enforces.
func BenchmarkCoreRenderCompiled(b *testing.B) {
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.Run("mode=compiled", func(b *testing.B) {
				e := benchEngineAt(b, n)
				consumer := report.Consumer{Name: "bench", Role: "analyst", Purpose: "quality"}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					enf, err := e.Render("drug-consumption", consumer)
					if err != nil {
						b.Fatal(err)
					}
					if enf.Table.NumRows() == 0 {
						b.Fatal("all rows suppressed")
					}
				}
			})
		})
	}
}

// BenchmarkCoreETL measures the guarded ETL pipeline: extraction,
// cleansing, entity resolution against the municipal registry, and the
// two permitted joins into rx_wide.
func BenchmarkCoreETL(b *testing.B) {
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			withMode(b, func(b *testing.B) {
				e := benchEngineAt(b, n)
				p := core.HealthcarePipeline(e)
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.RunETL(p, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCoreRewrite measures VPD-style rewrite plus execution of the
// rewritten query — the path where predicate pushdown lets privacy
// filters cut the input before the join materializes.
func BenchmarkCoreRewrite(b *testing.B) {
	const q = "SELECT p.drug, c.cost FROM prescriptions p JOIN drugcost c ON p.drug = c.drug WHERE p.disease = 'flu'"
	for _, n := range coreScales {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			withMode(b, func(b *testing.B) {
				e := benchEngineAt(b, n)
				rw := enforce.NewQueryRewriter(e.Policies, e.Catalog)
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rewritten, _, err := rw.RewriteSQL(q, "auditor", "quality")
					if err != nil {
						b.Fatal(err)
					}
					out, err := e.Catalog.Query(rewritten)
					if err != nil {
						b.Fatal(err)
					}
					if out.NumRows() == 0 {
						b.Fatal("rewritten query returned no rows")
					}
				}
			})
		})
	}
}
