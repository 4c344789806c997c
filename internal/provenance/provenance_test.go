package provenance

import (
	"fmt"
	"strings"
	"testing"

	"plabi/internal/relation"
)

func fixtures() (*relation.Table, *relation.Table, *Tracer) {
	p := relation.NewBase("prescriptions", relation.NewSchema(
		relation.Col("patient", relation.TString),
		relation.Col("drug", relation.TString),
		relation.Col("disease", relation.TString),
	))
	p.AppendVals(relation.Str("Alice"), relation.Str("DH"), relation.Str("HIV"))
	p.AppendVals(relation.Str("Bob"), relation.Str("DR"), relation.Str("asthma"))
	p.AppendVals(relation.Str("Alice"), relation.Str("DR"), relation.Str("asthma"))

	c := relation.NewBase("drugcost", relation.NewSchema(
		relation.Col("drug", relation.TString),
		relation.Col("cost", relation.TInt),
	))
	c.AppendVals(relation.Str("DH"), relation.Int(60))
	c.AppendVals(relation.Str("DR"), relation.Int(10))

	tr := NewTracer()
	tr.RegisterBase(p)
	tr.RegisterBase(c)
	return p, c, tr
}

func TestTraceCellThroughJoin(t *testing.T) {
	p, c, tr := fixtures()
	j, err := relation.Join(relation.Rename(p, "p"), relation.Rename(c, "c"),
		relation.Eq(relation.ColRefExpr("p.drug"), relation.ColRefExpr("c.drug")), relation.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tr.TraceCell(j, 0, "c.cost")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Value.I != 60 {
		t.Errorf("value = %v", ct.Value)
	}
	// The cost cell must trace to drugcost#0.cost only.
	if len(ct.Cells) != 1 || ct.Cells[0].Table != "drugcost" || ct.Cells[0].Column != "cost" || ct.Cells[0].Value.I != 60 {
		t.Errorf("cells = %v", ct.Cells)
	}
	if !strings.Contains(ct.String(), "drugcost#0.cost=60") {
		t.Errorf("String = %s", ct.String())
	}
}

func TestTraceAggregateRow(t *testing.T) {
	p, _, tr := fixtures()
	g, err := relation.GroupBy(p, []string{"disease"}, []relation.AggSpec{{Kind: relation.AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	var asthmaRow = -1
	for i := range g.Rows {
		if g.Get(i, "disease").S == "asthma" {
			asthmaRow = i
		}
	}
	rt, err := tr.TraceRow(g, asthmaRow)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Support["prescriptions"] != 2 {
		t.Errorf("support = %v", rt.Support)
	}
	// Distinct patients behind the asthma group: Bob and Alice.
	if n := tr.DistinctSupport(rt, "prescriptions", "patient"); n != 2 {
		t.Errorf("distinct patients = %d", n)
	}
	// Distinct drugs behind the asthma group: only DR.
	if n := tr.DistinctSupport(rt, "prescriptions", "drug"); n != 1 {
		t.Errorf("distinct drugs = %d", n)
	}
}

func TestTraceErrors(t *testing.T) {
	p, _, tr := fixtures()
	if _, err := tr.TraceCell(p, 0, "ghost"); err == nil {
		t.Error("expected unknown column error")
	}
	if _, err := tr.TraceCell(p, 99, "patient"); err == nil {
		t.Error("expected out of range error")
	}
	if _, err := tr.TraceRow(p, -1); err == nil {
		t.Error("expected out of range error")
	}
}

func TestBaseValue(t *testing.T) {
	_, _, tr := fixtures()
	v, ok := tr.BaseValue(relation.RowRef{Table: "prescriptions", Row: 1}, "patient")
	if !ok || v.S != "Bob" {
		t.Errorf("BaseValue = %v, %v", v, ok)
	}
	if _, ok := tr.BaseValue(relation.RowRef{Table: "nope", Row: 0}, "x"); ok {
		t.Error("unknown table must not resolve")
	}
}

func TestGraphUpstream(t *testing.T) {
	g := NewGraph()
	g.AddStep("extract", []string{"hospital.prescriptions"}, "staging.prescriptions", "", 100, 100)
	g.AddStep("clean", []string{"staging.prescriptions"}, "staging.prescriptions_clean", "trim names", 100, 98)
	g.AddStep("extract", []string{"pharma.drugcost"}, "staging.drugcost", "", 10, 10)
	g.AddStep("join", []string{"staging.prescriptions_clean", "staging.drugcost"}, "dwh.fact_prescription", "", 98, 98)
	g.AddStep("aggregate", []string{"dwh.fact_prescription"}, "report.drug_consumption", "", 98, 4)

	up := g.Upstream("report.drug_consumption")
	if len(up) != 5 {
		t.Fatalf("upstream steps = %d", len(up))
	}
	srcs := g.SourceTables("report.drug_consumption")
	if len(srcs) != 2 || srcs[0] != "hospital.prescriptions" || srcs[1] != "pharma.drugcost" {
		t.Errorf("sources = %v", srcs)
	}
	exp := g.Explain("report.drug_consumption")
	if !strings.Contains(exp, "join") || !strings.Contains(exp, "aggregate") {
		t.Errorf("explain = %s", exp)
	}
}

func TestGraphUpstreamPartial(t *testing.T) {
	g := NewGraph()
	g.AddStep("extract", []string{"a"}, "b", "", 1, 1)
	g.AddStep("extract", []string{"x"}, "y", "", 1, 1)
	up := g.Upstream("b")
	if len(up) != 1 || up[0].Op != "extract" || up[0].Inputs[0] != "a" {
		t.Errorf("upstream = %v", up)
	}
	if got := g.Explain("unknown"); !strings.Contains(got, "base relation") {
		t.Errorf("explain unknown = %s", got)
	}
}

// TestColDictSupersededBase pins the dictionary cache against a refresh
// racing a dictionary build: a dictionary built from a base version that
// RefreshBase has since replaced must not be installed for the new
// version, so later threshold checks and append refreshes see a
// dictionary covering every row of the registered table.
func TestColDictSupersededBase(t *testing.T) {
	version := func(n int) *relation.Table {
		tb := relation.NewBase("visits", relation.NewSchema(relation.Col("patient", relation.TString)))
		for i := 0; i < n; i++ {
			tb.AppendVals(relation.Str(fmt.Sprintf("p%d", i%12)))
		}
		return tb
	}
	tr := NewTracer()
	tr.RegisterBase(version(10))
	old, _ := tr.base("visits")
	tr.RefreshBase(version(20), 10)
	if d := tr.colDict("visits", old, 0); d == nil || len(d.codes) != 10 {
		t.Fatalf("dictionary over the superseded base: %+v", d)
	}

	check := func(rows ...int) {
		t.Helper()
		rt := RowTrace{}
		for _, r := range rows {
			rt.Rows = append(rt.Rows, relation.RowRef{Table: "visits", Row: r})
		}
		cur, _ := tr.base("visits")
		want := tr.distinctSupportRows(rt, cur, "visits", 0)
		if got := tr.DistinctSupport(rt, "visits", "patient"); got != want {
			t.Errorf("DistinctSupport(%v) = %d, want %d", rows, got, want)
		}
	}
	check(15)
	check(3, 15)
	check(14, 15)

	tr.RefreshBase(version(30), 20)
	check(15, 27)
	check(25, 26)
	check(0, 12, 24, 29)
}
