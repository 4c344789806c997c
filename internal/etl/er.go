package etl

import (
	"context"
	"fmt"
	"strings"

	"plabi/internal/relation"
	"plabi/internal/textutil"
)

// EntityResolution resolves dirty entity references in one column of a
// staging table against a canonical list drawn from another (donor)
// table — the paper's "integration" use of data: information from one
// owner cleaning/resolving another owner's data (§5 v). The guard's
// CheckIntegration is consulted with the donor table and the beneficiary
// owner before any donor value is used.
type EntityResolution struct {
	baseStep
	// Input is the staging table whose Column gets resolved.
	Input  string
	Column string
	// Canon is the staging table supplying canonical values from
	// CanonColumn.
	Canon       string
	CanonColumn string
	// Beneficiary is the owner of the Input data (the party whose data is
	// being cleaned with the donor's values).
	Beneficiary string
	// Threshold is the Jaro-Winkler similarity, in (0, 1], at or above
	// which a dirty value snaps to its best canonical match.
	Threshold float64
	Out       string

	// Stats of the last run.
	Resolved  int
	Unmatched int

	// matcher indexes matcherCanon, the canon table it was built from,
	// and outlives the run so deltas against an unchanged canon reuse
	// it. Access is serialized by the pipeline (one run or delta at a
	// time).
	matcher      *matcher
	matcherCanon *relation.Table
}

// NewEntityResolution builds a guarded entity-resolution step.
func NewEntityResolution(name, input, column, canon, canonColumn, beneficiary string, threshold float64, output string) *EntityResolution {
	return &EntityResolution{
		baseStep: baseStep{name}, Input: input, Column: column,
		Canon: canon, CanonColumn: canonColumn, Beneficiary: beneficiary,
		Threshold: threshold, Out: output,
	}
}

// Op implements Step.
func (e *EntityResolution) Op() string { return "entity-resolution" }

// Inputs implements Step.
func (e *EntityResolution) Inputs() []string { return []string{e.Input, e.Canon} }

// Output implements Step.
func (e *EntityResolution) Output() string { return e.Out }

// Run implements Step.
func (e *EntityResolution) Run(c *Context) error {
	e.matcher, e.matcherCanon = nil, nil // a full run rebuilds the matcher
	in, ti, err := e.prepare(c)
	if err != nil {
		return err
	}
	out, resolved, unmatched, err := e.resolve(c.Ctx(), in, ti)
	if err != nil {
		return err
	}
	e.Resolved, e.Unmatched = resolved, unmatched
	out.Name = e.Out
	c.Put(e.Out, out)
	return nil
}

// prepare validates the step, re-checks the integration permission,
// makes e.matcher index the current canon table, and returns the input
// table and the index of the column to resolve. The matcher is rebuilt
// unless it was built from this very canon table (staging tables are
// copy-on-write, so identity means content).
func (e *EntityResolution) prepare(c *Context) (*relation.Table, int, error) {
	if !(e.Threshold > 0 && e.Threshold <= 1) {
		return nil, 0, fmt.Errorf("entity-resolution: threshold %v outside (0, 1]", e.Threshold)
	}
	in, err := c.Get(e.Input)
	if err != nil {
		return nil, 0, err
	}
	canon, err := c.Get(e.Canon)
	if err != nil {
		return nil, 0, err
	}
	for _, donor := range baseTablesOf(canon) {
		if err := c.Guard.CheckIntegration(donor, e.Beneficiary); err != nil {
			return nil, 0, &ViolationError{Step: e.name, Rule: "integration-permission",
				Detail: fmt.Sprintf("donor %s cleaning data of %s: %v", donor, e.Beneficiary, err), Cause: err}
		}
	}
	ci := canon.Schema.Index(e.CanonColumn)
	if ci < 0 {
		return nil, 0, fmt.Errorf("entity-resolution: canonical column %q not found", e.CanonColumn)
	}
	if e.matcher == nil || e.matcherCanon != canon {
		rows, err := canon.Materialize()
		if err != nil {
			return nil, 0, err
		}
		m := newMatcher()
		for _, r := range rows.Rows {
			if v := r[ci]; v.Kind == relation.TString {
				m.add(v.S)
			}
		}
		e.matcher, e.matcherCanon = m, canon
	}
	ti := in.Schema.Index(e.Column)
	if ti < 0 {
		return nil, 0, fmt.Errorf("entity-resolution: column %q not found", e.Column)
	}
	return in, ti, nil
}

// resolve snaps every string in column ti of t to its best canonical
// match, counting the values it changed and the values left unmatched.
func (e *EntityResolution) resolve(ctx context.Context, t *relation.Table, ti int) (out *relation.Table, resolved, unmatched int, err error) {
	out, err = mapCol(ctx, t, ti, func(v relation.Value) relation.Value {
		if v.Kind != relation.TString {
			return v
		}
		best, ok := e.matcher.match(v.S, e.Threshold)
		if !ok {
			unmatched++
			return v
		}
		if best != v.S {
			resolved++
		}
		return relation.Str(best)
	})
	return out, resolved, unmatched, err
}

// matcher indexes canonical strings with cheap blocking (first letter of
// each word, normalized) and scores a dirty value only against the
// candidates of its blocks. Candidates carry their normalized form and
// its profile, computed once at add time; a candidate whose Jaro-Winkler
// upper bound cannot beat the threshold or the best score so far is
// skipped without scoring. A matcher is not safe for concurrent use.
type matcher struct {
	exact  map[string]string  // normalized -> canonical
	blocks map[string][]int32 // block key -> indices into cands, in add order
	cands  []candidate
	// stamp[i] == epoch marks candidate i as already visited by the
	// current lookup (a candidate sits in one block per word).
	stamp []uint32
	epoch uint32
}

// candidate is a canonical string plus its cached normalization.
type candidate struct {
	canon string
	norm  string
	prof  textutil.Profile
}

// boundSlack keeps floating-point rounding in the bound from pruning a
// candidate whose exact score would win.
const boundSlack = 1e-9

func newMatcher() *matcher {
	return &matcher{exact: map[string]string{}, blocks: map[string][]int32{}}
}

func blockKeys(norm string) []string {
	words := strings.Fields(norm)
	keys := make([]string, 0, len(words))
	for _, w := range words {
		keys = append(keys, w[:1])
	}
	if len(keys) == 0 {
		keys = append(keys, "")
	}
	return keys
}

func (m *matcher) add(canonical string) {
	norm := textutil.Normalize(canonical)
	if _, ok := m.exact[norm]; ok {
		return
	}
	m.exact[norm] = canonical
	id := int32(len(m.cands))
	m.cands = append(m.cands, candidate{canon: canonical, norm: norm, prof: textutil.NewProfile(norm)})
	m.stamp = append(m.stamp, 0)
	for _, k := range blockKeys(norm) {
		m.blocks[k] = append(m.blocks[k], id)
	}
}

// match finds the best canonical candidate scoring at least threshold.
// Candidates are scored in block order and a later one replaces the
// best only with a strictly higher score, so ties go to the first.
func (m *matcher) match(s string, threshold float64) (string, bool) {
	norm := textutil.Normalize(s)
	if c, ok := m.exact[norm]; ok {
		return c, true
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
	q := textutil.NewProfile(norm)
	best, bestScore := -1, 0.0
	for _, k := range blockKeys(norm) {
		for _, id := range m.blocks[k] {
			if m.stamp[id] == m.epoch {
				continue
			}
			m.stamp[id] = m.epoch
			cand := &m.cands[id]
			if ub := textutil.JaroWinklerBound(&q, &cand.prof) + boundSlack; ub < threshold || ub <= bestScore {
				continue
			}
			if score := textutil.JaroWinkler(norm, cand.norm); score > bestScore {
				best, bestScore = int(id), score
			}
		}
	}
	if best >= 0 && bestScore >= threshold {
		return m.cands[best].canon, true
	}
	return "", false
}
