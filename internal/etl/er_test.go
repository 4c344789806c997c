package etl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"plabi/internal/relation"
	"plabi/internal/textutil"
	"plabi/internal/workload"
)

// refMatcher is the reference entity matcher: the same blocking as
// matcher, then a full Jaro-Winkler scan of every candidate in the
// blocks, deduplicated by canonical string. The pruned matcher must
// return exactly what it returns.
type refMatcher struct {
	exact  map[string]string
	blocks map[string][]refCandidate
}

type refCandidate struct {
	canon string
	norm  string
}

func newRefMatcher() *refMatcher {
	return &refMatcher{exact: map[string]string{}, blocks: map[string][]refCandidate{}}
}

func (m *refMatcher) add(canonical string) {
	norm := textutil.Normalize(canonical)
	if _, ok := m.exact[norm]; ok {
		return
	}
	m.exact[norm] = canonical
	for _, k := range blockKeys(norm) {
		m.blocks[k] = append(m.blocks[k], refCandidate{canon: canonical, norm: norm})
	}
}

func (m *refMatcher) match(s string, threshold float64) (string, bool) {
	norm := textutil.Normalize(s)
	if c, ok := m.exact[norm]; ok {
		return c, true
	}
	seen := map[string]bool{}
	best, bestScore := "", 0.0
	for _, k := range blockKeys(norm) {
		for _, cand := range m.blocks[k] {
			if seen[cand.canon] {
				continue
			}
			seen[cand.canon] = true
			score := textutil.JaroWinkler(norm, cand.norm)
			if score > bestScore {
				best, bestScore = cand.canon, score
			}
		}
	}
	if bestScore >= threshold {
		return best, true
	}
	return "", false
}

var erThresholds = []float64{0.7, 0.85, 0.88, 0.95}

// checkAgainstReference asserts that matcher and refMatcher, built from
// the same canon, agree on every query at every threshold.
func checkAgainstReference(t *testing.T, label string, canon, queries []string) {
	t.Helper()
	m, ref := newMatcher(), newRefMatcher()
	for _, c := range canon {
		m.add(c)
		ref.add(c)
	}
	bad := 0
	for _, q := range queries {
		for _, th := range erThresholds {
			gotV, gotOK := m.match(q, th)
			wantV, wantOK := ref.match(q, th)
			if gotV != wantV || gotOK != wantOK {
				t.Errorf("%s: match(%q, %v) = (%q, %v), reference (%q, %v)", label, q, th, gotV, gotOK, wantV, wantOK)
				if bad++; bad > 10 {
					t.FailNow()
				}
			}
		}
	}
}

// accent replaces one letter of name with a non-ASCII look-alike.
func accent(name string, rng *rand.Rand) string {
	r := []rune(name)
	i := rng.Intn(len(r))
	r[i] = []rune("éüñøàç")[rng.Intn(6)]
	return string(r)
}

// TestMatcherMatchesReference: the bound-pruned matcher returns the
// reference's (value, ok) on generated canons with single and double
// typos, non-ASCII names, empty and whitespace-only values, at every
// threshold the pipelines use.
func TestMatcherMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		patients int
		queries  int
	}{{1, 1000, 200}, {2, 1000, 200}, {3, 10000, 50}} {
		cfg := workload.DefaultConfig(tc.seed)
		cfg.Patients = tc.patients
		ds, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed))
		canon := append([]string(nil), ds.PatientNames...)
		for i := 0; i < 20; i++ {
			canon = append(canon, accent(canon[rng.Intn(tc.patients)], rng))
		}
		queries := []string{"", "   ", "\t \n", "Zed Quux", "ÿ", "é é"}
		for i := 0; i < tc.queries; i++ {
			name := canon[rng.Intn(len(canon))]
			once := workload.Dirty(name, rng)
			queries = append(queries, once, workload.Dirty(once, rng), accent(name, rng))
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d, %d patients", tc.seed, tc.patients), canon, queries)
	}
}

// TestMatcherTiesMatchReference: equal scores resolve to the candidate
// the reference visits first, both within a block and across the
// blocks of different words. The random small-alphabet canon makes
// ties and near-ties common.
func TestMatcherTiesMatchReference(t *testing.T) {
	checkAgainstReference(t, "hand-built ties",
		[]string{"maria bianchy", "maria bianchi", "mario bianchi", "bianchi maria", "ab cx", "ab cy", "cy ab"},
		[]string{"maria bianch", "bianch maria", "ab c", "ab cz", "c ab", "cz ab"})

	rng := rand.New(rand.NewSource(7))
	word := func() string {
		b := make([]byte, 2+rng.Intn(5))
		for i := range b {
			b[i] = "abcd"[rng.Intn(4)]
		}
		return string(b)
	}
	phrase := func() string {
		if rng.Intn(2) == 0 {
			return word()
		}
		return word() + " " + word()
	}
	var canon, queries []string
	for i := 0; i < 300; i++ {
		canon = append(canon, phrase())
	}
	for i := 0; i < 500; i++ {
		queries = append(queries, phrase())
	}
	checkAgainstReference(t, "small alphabet", canon, queries)
}

// TestMatchRequiresCandidate: a lookup with no candidate scoring above
// zero does not match, whatever the threshold.
func TestMatchRequiresCandidate(t *testing.T) {
	m := newMatcher()
	m.add("Anna Rossi")
	for _, th := range []float64{0, -1} {
		if v, ok := m.match("Zed Quux", th); ok || v != "" {
			t.Errorf("match(Zed Quux, %v) = (%q, %v), want no match", th, v, ok)
		}
	}
	if v, ok := m.match("", 0); ok || v != "" {
		t.Errorf(`match("", 0) = (%q, %v), want no match`, v, ok)
	}
}

// TestEntityResolutionRejectsBadThreshold: a threshold outside (0, 1]
// would blank or keep every value; the step refuses to run with one.
func TestEntityResolutionRejectsBadThreshold(t *testing.T) {
	for _, th := range []float64{0, -0.5, 1.01, math.NaN(), math.Inf(1)} {
		canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
		canon.AppendVals(relation.Str("Anna Rossi"))
		dirty := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
		dirty.AppendVals(relation.Str("Zed Quux"))
		c := NewContext(nil)
		c.Put("residents", canon)
		c.Put("familydoctor", dirty)
		er := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient", "familydoctors", th, "resolved")
		if err := er.Run(c); err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("threshold %v: err = %v, want a threshold error", th, err)
		}
	}
	canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	canon.AppendVals(relation.Str("Anna Rossi"))
	c := NewContext(nil)
	c.Put("residents", canon)
	c.Put("familydoctor", canon)
	if err := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient", "familydoctors", 1, "resolved").Run(c); err != nil {
		t.Errorf("threshold 1: %v", err)
	}
}

// failAfter is a pass-through step that fails while fail is set, to
// force a delta rollback after the steps before it have run.
type failAfter struct {
	baseStep
	in, out string
	fail    bool
}

func (f *failAfter) Op() string       { return "fail-after" }
func (f *failAfter) Inputs() []string { return []string{f.in} }
func (f *failAfter) Output() string   { return f.out }
func (f *failAfter) Run(c *Context) error {
	if f.fail {
		return errors.New("downstream failure")
	}
	t, err := c.Get(f.in)
	if err != nil {
		return err
	}
	c.Put(f.out, t)
	return nil
}

// TestERDeltaKeepsMatcher: deltas on the dirty input reuse the matcher
// built by the full run; a canon change rebuilds it, and a canon rolled
// back to its earlier version gets a matcher for that version again.
func TestERDeltaKeepsMatcher(t *testing.T) {
	canon := relation.NewBase("residents", relation.NewSchema(relation.Col("patient", relation.TString)))
	for _, n := range []string{"Alice Rossi", "Bruno Verdi"} {
		canon.AppendVals(relation.Str(n))
	}
	dirty := relation.NewBase("familydoctor", relation.NewSchema(relation.Col("patient", relation.TString)))
	dirty.AppendVals(relation.Str("Alice Rosi"))
	fam := NewSource("familydoctors", "familydoctors", dirty)
	muni := NewSource("municipality", "municipality", canon)
	er := NewEntityResolution("er", "familydoctor", "patient", "residents", "patient", "familydoctors", 0.9, "resolved")
	tail := &failAfter{baseStep: baseStep{"tail"}, in: "resolved", out: "published"}
	p := &Pipeline{Steps: []Step{
		NewExtract("e1", fam, "familydoctor", ""),
		NewExtract("e2", muni, "residents", ""),
		er, tail,
	}}
	c := NewContext(nil)
	if _, err := p.Run(c, false); err != nil {
		t.Fatal(err)
	}
	m0 := er.matcher
	lastResolved := func() string {
		out, err := c.Get("resolved")
		if err != nil {
			t.Fatal(err)
		}
		return out.Get(out.NumRows()-1, "patient").S
	}

	applyAndPropagate(t, p, c, fam, &Delta{Source: "familydoctors", Table: "familydoctor",
		Inserts: []relation.Row{{relation.Str("Carla Bianchy")}}})
	if er.matcher != m0 {
		t.Error("input-only delta rebuilt the matcher")
	}
	if got := lastResolved(); got != "Carla Bianchy" {
		t.Errorf("resolved %q before Carla joined the canon", got)
	}

	// A canon delta whose refresh fails downstream rolls back: the ER
	// step ran against the new canon, staging returns to the old one.
	oldCanon, _ := muni.Table("residents")
	next, ch, err := (&Delta{Source: "municipality", Table: "residents",
		Inserts: []relation.Row{{relation.Str("Carla Bianchi")}}}).Apply(oldCanon)
	if err != nil {
		t.Fatal(err)
	}
	muni.Tables["residents"] = next
	tail.fail = true
	if _, err := p.ApplyDelta(context.Background(), c, map[string]Change{"municipality.residents": ch}); err == nil {
		t.Fatal("failing tail step did not fail the delta")
	}
	if er.matcher == m0 || er.matcherCanon != next {
		t.Fatal("canon delta did not rebuild the matcher")
	}
	muni.Tables["residents"] = oldCanon
	tail.fail = false

	applyAndPropagate(t, p, c, fam, &Delta{Source: "familydoctors", Table: "familydoctor",
		Inserts: []relation.Row{{relation.Str("Carla Bianchy")}}})
	if er.matcherCanon != oldCanon {
		t.Error("matcher not rebuilt for the rolled-back canon")
	}
	if got := lastResolved(); got != "Carla Bianchy" {
		t.Errorf("resolved %q against the rolled-back canon", got)
	}

	muni.Tables["residents"] = next
	if _, err := p.ApplyDelta(context.Background(), c, map[string]Change{"municipality.residents": ch}); err != nil {
		t.Fatal(err)
	}
	if got := lastResolved(); got != "Carla Bianchi" {
		t.Errorf("resolved %q after Carla joined the canon", got)
	}
}

// BenchmarkERMatch measures one fuzzy lookup against a 10k-name canon:
// the generated dirty references (family-doctor and lab names that are
// not an exact canonical name) resolved at the pipelines' threshold.
func BenchmarkERMatch(b *testing.B) {
	cfg := workload.DefaultConfig(1)
	cfg.Patients = 10000
	cfg.LabResults = 10000
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := newMatcher()
	for _, n := range ds.PatientNames {
		m.add(n)
	}
	var dirty []string
	for _, t := range []*relation.Table{ds.FamilyDoctor, ds.LabResults} {
		for i := 0; i < t.NumRows(); i++ {
			if v := t.Get(i, "patient").S; m.exact[textutil.Normalize(v)] == "" {
				dirty = append(dirty, v)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.match(dirty[i%len(dirty)], 0.88); ok {
			erMatched++
		}
	}
}

var erMatched int
