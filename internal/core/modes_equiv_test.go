package core

import (
	"context"
	"fmt"
	"testing"

	"plabi/internal/enforce"
	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/workload"
)

// scenarioRun captures everything observable about one full scenario run:
// rendered tables, enforcement decisions, intervention counters, and the
// audit trail. The vectorized and row-at-a-time execution modes must
// produce identical runs — the acceptance bar for the batch kernel layer —
// and inside every run each folded render must match the interpreted
// reference render — the acceptance bar for the residual-program fold.
type scenarioRun struct {
	tables     map[string]string
	decisions  map[string][]string
	masked     map[string]int
	suppressed map[string]int
	auditKinds map[string]int
	etlTables  map[string]string
}

func runScenario(t *testing.T, mode relation.ExecMode) scenarioRun {
	return runScenarioWith(t, mode, nil)
}

// runScenarioWith is runScenario with an engine-configuration hook
// applied before the scenario ETL runs (the segment-backed equivalence
// test uses it to reroute staging tables through a spill store).
func runScenarioWith(t *testing.T, mode relation.ExecMode, configure func(*Engine)) scenarioRun {
	t.Helper()
	prev := relation.SetExecMode(mode)
	defer relation.SetExecMode(prev)

	e, _, err := BuildHealthcareEngineWith(workload.DefaultConfig(7), configure)
	if err != nil {
		t.Fatalf("mode %v: build: %v", mode, err)
	}
	run := scenarioRun{
		tables:     map[string]string{},
		decisions:  map[string][]string{},
		masked:     map[string]int{},
		suppressed: map[string]int{},
		auditKinds: map[string]int{},
		etlTables:  map[string]string{},
	}
	for _, name := range []string{"rx_cost", "rx_wide", "familydoctor_resolved"} {
		tab, ok := e.Table(name)
		if !ok {
			t.Fatalf("mode %v: warehouse table %s missing", mode, name)
		}
		run.etlTables[name] = tab.String()
	}
	consumers := []report.Consumer{
		{Name: "alice", Role: "analyst", Purpose: "quality"},
		{Name: "audrey", Role: "auditor", Purpose: "quality"},
		{Name: "rob", Role: "analyst", Purpose: "reimbursement"},
	}
	for _, d := range StandardReports() {
		for _, c := range consumers {
			key := d.ID + "/" + c.Role + "/" + c.Purpose
			// Render every triple twice: the first render folds the
			// result and the second replays the fold, so the equivalence
			// bar covers both the cold and the replay path. Both must
			// match the interpreted reference on the same engine.
			ref, refErr := e.Enforcer().RenderInterpreted(context.Background(), d, c)
			for pass := 0; pass < 2; pass++ {
				enf, err := e.Render(d.ID, c)
				if err != nil {
					run.tables[key] = "ERR: " + err.Error()
					if refErr == nil || refErr.Error() != err.Error() {
						t.Errorf("mode %v: %s pass %d: error %v, interpreted reference error %v", mode, key, pass, err, refErr)
					}
					continue
				}
				if refErr != nil {
					t.Errorf("mode %v: %s pass %d: rendered, interpreted reference error %v", mode, key, pass, refErr)
				} else if got, want := renderSignature(enf), renderSignature(ref); got != want {
					t.Errorf("mode %v: %s pass %d diverged from the interpreted reference:\nfolded:\n%s\ninterpreted:\n%s", mode, key, pass, got, want)
				}
				run.tables[key] = enf.Table.String()
				run.masked[key] = enf.MaskedCells
				run.suppressed[key] = enf.SuppressedRows
				run.decisions[key] = decisionStrings(enf)
			}
		}
	}
	for _, ev := range e.Audit.Events() {
		run.auditKinds[ev.Kind]++
	}
	return run
}

// decisionStrings flattens an enforced render's decision stream.
func decisionStrings(enf *enforce.Enforced) []string {
	out := make([]string, 0, len(enf.Decisions))
	for _, dec := range enf.Decisions {
		out = append(out, fmt.Sprintf("%v|%s|%s|%s", dec.Outcome, dec.Rule, dec.Subject, dec.Detail))
	}
	return out
}

// renderSignature is everything a consumer and the audit trail observe
// of one render: the table, the decision stream and the intervention
// counters.
func renderSignature(enf *enforce.Enforced) string {
	return fmt.Sprintf("%s\ndecisions=%q\nmasked=%d suppressed=%d",
		enf.Table.String(), decisionStrings(enf), enf.MaskedCells, enf.SuppressedRows)
}

// compareRuns requires two scenario runs to be byte-identical: tables,
// decision streams, intervention counters and audit event counts.
func compareRuns(t *testing.T, aName, bName string, a, b scenarioRun) {
	t.Helper()
	for name, as := range a.etlTables {
		if bs := b.etlTables[name]; as != bs {
			t.Errorf("ETL table %s diverged between modes:\n%s:\n%s\n%s:\n%s", name, aName, as, bName, bs)
		}
	}
	for key, as := range a.tables {
		if bs, ok := b.tables[key]; !ok || as != bs {
			t.Errorf("report %s diverged between modes:\n%s:\n%s\n%s:\n%s", key, aName, as, bName, b.tables[key])
		}
	}
	if len(a.tables) != len(b.tables) {
		t.Errorf("rendered report sets differ: %d (%s) vs %d (%s)", len(a.tables), aName, len(b.tables), bName)
	}
	for key := range a.tables {
		if a.masked[key] != b.masked[key] {
			t.Errorf("%s: masked cells %d (%s) vs %d (%s)", key, a.masked[key], aName, b.masked[key], bName)
		}
		if a.suppressed[key] != b.suppressed[key] {
			t.Errorf("%s: suppressed rows %d (%s) vs %d (%s)", key, a.suppressed[key], aName, b.suppressed[key], bName)
		}
		ad, bd := a.decisions[key], b.decisions[key]
		if len(ad) != len(bd) {
			t.Errorf("%s: decision count %d (%s) vs %d (%s)", key, len(ad), aName, len(bd), bName)
			continue
		}
		for i := range ad {
			if ad[i] != bd[i] {
				t.Errorf("%s: decision %d diverged:\n  %s: %s\n  %s: %s", key, i, aName, ad[i], bName, bd[i])
			}
		}
	}
	for kind, n := range a.auditKinds {
		if b.auditKinds[kind] != n {
			t.Errorf("audit events %q: %d (%s) vs %d (%s)", kind, n, aName, b.auditKinds[kind], bName)
		}
	}
}

// TestScenarioModeEquivalence runs the complete healthcare scenario —
// synthetic workload, guarded ETL with entity resolution, every standard
// report for three consumers, each rendered twice — under both execution
// modes and requires byte-identical tables, identical decision streams,
// identical mask/suppression counters and identical audit event counts.
// Within each run every fold and every replay must also match the
// interpreted reference render (see runScenarioWith).
func TestScenarioModeEquivalence(t *testing.T) {
	vec := runScenario(t, relation.ExecVectorized)
	row := runScenario(t, relation.ExecRowAtATime)

	compareRuns(t, "vectorized", "row", vec, row)
}

// TestSegmentModeEquivalence is the storage-mode analogue: the complete
// scenario with every ETL staging table spilled to on-disk columnar
// segments (tiny partitions, so reports cross many partition boundaries)
// must be byte-identical — tables, decisions, counters, audit kinds — to
// the fully in-memory run, at every execution mode. The in-memory run is
// the semantic oracle for the out-of-core storage layer.
func TestSegmentModeEquivalence(t *testing.T) {
	modes := []struct {
		name string
		m    relation.ExecMode
	}{
		{"row", relation.ExecRowAtATime},
		{"vectorized", relation.ExecVectorized},
	}
	for _, mode := range modes {
		mem := runScenario(t, mode.m)
		seg := runScenarioWith(t, mode.m, func(e *Engine) {
			s := e.SetSegmentStore(t.TempDir())
			s.SetPartitionRows(16)
			e.SetSpillThreshold(1) // spill every staging table
		})
		compareRuns(t, mode.name+"/in-memory", mode.name+"/segment", mem, seg)
	}
}
